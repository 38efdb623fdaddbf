//! Kill-and-resume crash recovery: a tuner that snapshots after every
//! observation and is "killed" and resumed at every iteration boundary
//! must reproduce the uninterrupted run's suggestion trace bitwise, also
//! when the snapshot has been through its JSON persistence format.

use otune_core::{OnlineTuner, TunerOptions, TunerSnapshot};
use otune_space::{spark_space, ClusterScale, ConfigSpace, Configuration};
use otune_sparksim::{hibench_task, ClusterSpec, FaultKind, FaultProfile, HibenchTask, SimJob};
use otune_telemetry::{metric, EventKind, Telemetry};

const BUDGET: usize = 20;

fn space() -> ConfigSpace {
    spark_space(ClusterScale::hibench())
}

fn opts(seed: u64, t_max: f64) -> TunerOptions {
    TunerOptions {
        budget: BUDGET,
        t_max: Some(t_max),
        enable_meta: false,
        seed,
        ..TunerOptions::default()
    }
}

/// The workload: simulated WordCount with a scripted failure burst so the
/// replay path covers censored observations and the fallback.
fn job(seed: u64, t_max: f64) -> SimJob {
    SimJob::new(ClusterSpec::hibench(), hibench_task(HibenchTask::WordCount))
        .with_seed(seed)
        .with_faults(
            FaultProfile::new(seed)
                .with_t_max(t_max)
                .fail_at(5, FaultKind::ExecutorOom)
                .fail_at(6, FaultKind::ExecutorOom)
                .fail_at(7, FaultKind::TimeoutKill),
        )
}

/// One suggest → run → observe cycle; returns the suggested config.
fn step(tuner: &mut OnlineTuner, job: &SimJob, t: u64) -> Configuration {
    let cfg = tuner.suggest(&[]).expect("alternating protocol");
    let r = job.run(&cfg, t);
    if r.status.is_failure() {
        tuner
            .observe_failed(cfg.clone(), r.runtime_s, r.resource, &[])
            .expect("pending");
    } else {
        tuner
            .observe(cfg.clone(), r.runtime_s, r.resource, &[])
            .expect("pending");
    }
    cfg
}

fn seeded_tuner(seed: u64, t_max: f64, baseline_rt: f64, baseline_res: f64) -> OnlineTuner {
    let space = space();
    let mut tuner = OnlineTuner::new(space.clone(), opts(seed, t_max));
    tuner.seed_observation(
        space.default_configuration(),
        baseline_rt,
        baseline_res,
        &[],
    );
    tuner
}

#[test]
fn kill_and_resume_at_every_boundary_reproduces_the_golden_trace() {
    let seed = 13;
    let clean =
        SimJob::new(ClusterSpec::hibench(), hibench_task(HibenchTask::WordCount)).with_seed(seed);
    let baseline = clean.run(&space().default_configuration(), 0);
    let t_max = 2.0 * baseline.runtime_s;
    let job = job(seed, t_max);

    // The golden trace: one uninterrupted tuner.
    let mut golden_tuner = seeded_tuner(seed, t_max, baseline.runtime_s, baseline.resource);
    let golden: Vec<Configuration> = (1..=BUDGET as u64)
        .map(|t| step(&mut golden_tuner, &job, t))
        .collect();

    // The relay: a fresh process at EVERY iteration boundary — snapshot,
    // drop the tuner, resume from the snapshot, run one iteration.
    let mut snap = {
        let tuner = seeded_tuner(seed, t_max, baseline.runtime_s, baseline.resource);
        tuner.snapshot("relay")
    };
    let mut relay = Vec::new();
    for t in 1..=BUDGET as u64 {
        let mut tuner =
            OnlineTuner::resume(space(), opts(seed, t_max), &snap, Telemetry::disabled())
                .expect("snapshot replays");
        relay.push(step(&mut tuner, &job, t));
        snap = tuner.snapshot("relay");
    }

    assert_eq!(golden.len(), relay.len());
    for (i, (g, r)) in golden.iter().zip(&relay).enumerate() {
        assert_eq!(g, r, "trace diverged at iteration {}", i + 1);
    }
    // The encoded vectors agree bitwise, not just structurally.
    let s = space();
    for (g, r) in golden.iter().zip(&relay) {
        let (ge, re) = (s.encode(g), s.encode(r));
        assert_eq!(ge.len(), re.len());
        for (a, b) in ge.iter().zip(&re) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
    // The relay's final state matches the golden run's.
    let final_tuner =
        OnlineTuner::resume(space(), opts(seed, t_max), &snap, Telemetry::disabled()).unwrap();
    assert_eq!(final_tuner.history().len(), golden_tuner.history().len());
    for (a, b) in final_tuner.history().iter().zip(golden_tuner.history()) {
        assert_eq!(a.config, b.config);
        assert_eq!(a.runtime.to_bits(), b.runtime.to_bits());
        assert_eq!(a.failed, b.failed);
    }
}

#[test]
fn resume_through_the_jsonl_log_counts_and_emits() {
    let seed = 4;
    let clean =
        SimJob::new(ClusterSpec::hibench(), hibench_task(HibenchTask::WordCount)).with_seed(seed);
    let baseline = clean.run(&space().default_configuration(), 0);
    let t_max = 2.0 * baseline.runtime_s;
    let job = job(seed, t_max);

    // First "process": 8 iterations, then a snapshot in the JSON form the
    // job journal checkpoints.
    let mut tuner = seeded_tuner(seed, t_max, baseline.runtime_s, baseline.resource);
    for t in 1..=8u64 {
        step(&mut tuner, &job, t);
    }
    let persisted = serde_json::to_string(&tuner.snapshot("wc")).unwrap();
    let before_kill: Vec<_> = tuner.history().iter().map(|o| o.config.clone()).collect();
    drop(tuner); // the "crash"

    // Second "process": decode the newest snapshot and keep going.
    let snap: TunerSnapshot = serde_json::from_str(&persisted).unwrap();
    assert_eq!(snap.task_id, "wc");
    let (telemetry, sink) = Telemetry::ring(64);
    let mut tuner = OnlineTuner::resume(space(), opts(seed, t_max), &snap, telemetry.clone())
        .expect("log snapshot replays");
    let after: Vec<_> = tuner.history().iter().map(|o| o.config.clone()).collect();
    assert_eq!(before_kill, after, "history reconstructed exactly");

    // The resume is observable: counter + event.
    assert_eq!(
        telemetry.snapshot().unwrap().counters[metric::RESUMES],
        1,
        "one resume counted"
    );
    assert!(sink
        .events()
        .iter()
        .any(|e| matches!(e.kind, EventKind::TunerResumed { observations } if observations == 9)));

    // And the resumed tuner keeps tuning to the end of the budget.
    for t in 9..=BUDGET as u64 {
        step(&mut tuner, &job, t);
    }
    assert_eq!(tuner.history().len(), 1 + BUDGET);
    let best = tuner.best().expect("incumbent exists");
    assert!(!best.failed);
}
