//! Kill-and-resume crash recovery through the job journal: a campaign
//! whose engine is dropped and reopened at every wave boundary — so each
//! wave runs in a fresh "process" that rebuilds its tuners by replaying
//! the journaled waves — must reproduce the uninterrupted run's summary,
//! dead-letter queue and suggestion traces bitwise, through a scripted
//! failure burst that drives censored observations and the `τ_consec`
//! fallback.

use otune_jobs::{CampaignSpec, JobEngine, TaskFault};
use otune_space::{spark_space, ClusterScale};
use otune_sparksim::FaultKind;
use otune_telemetry::{metric, Telemetry};
use std::path::PathBuf;

const BUDGET: usize = 20;

fn journal_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "otune-resume-integration-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("journal.jsonl")
}

/// Task 0 fails three waves in a row — two executor OOMs, then a
/// timeout kill — with enough retries that it takes the fallback
/// instead of being dead-lettered.
fn spec() -> CampaignSpec {
    CampaignSpec {
        job_id: "relay".to_string(),
        n_tasks: 2,
        budget: BUDGET,
        seed: 13,
        max_retries: 4,
        checkpoint_every: 0,
        scripted_faults: [
            FaultKind::ExecutorOom,
            FaultKind::ExecutorOom,
            FaultKind::TimeoutKill,
        ]
        .into_iter()
        .zip(4..)
        .map(|(kind, wave)| TaskFault {
            task: 0,
            wave,
            kind,
        })
        .collect(),
        ..CampaignSpec::default()
    }
}

#[test]
fn kill_and_resume_at_every_boundary_reproduces_the_golden_trace() {
    // The golden trace: one uninterrupted engine.
    let (telemetry, _sink) = Telemetry::ring(1024);
    let mut golden = JobEngine::start(spec(), &journal_path("golden"), telemetry).unwrap();
    let summary = golden.run_to_completion().unwrap().clone();
    let counters = golden.telemetry().snapshot().unwrap().counters;
    assert!(
        counters
            .get(metric::FALLBACKS_TRIGGERED)
            .is_some_and(|&n| n >= 1),
        "the burst takes the fallback"
    );
    assert!(
        golden.dlq().is_empty(),
        "the burst is retried, not dead-lettered"
    );

    // The relay: a fresh engine at EVERY wave boundary — drop it without
    // `pause()`, reopen from the journal, run one wave.
    let path = journal_path("relay");
    drop(JobEngine::start(spec(), &path, Telemetry::disabled()).unwrap());
    let mut opens = 0;
    let mut relay = loop {
        let mut engine = JobEngine::open(&path, Telemetry::disabled()).unwrap();
        opens += 1;
        if engine.run_wave().unwrap().is_none() {
            break engine;
        }
    };
    assert_eq!(
        opens,
        BUDGET + 1,
        "one open per wave plus the completing one"
    );

    assert_eq!(relay.run_to_completion().unwrap(), &summary);
    assert_eq!(relay.dlq(), golden.dlq());
    let space = spark_space(ClusterScale::hibench());
    for task in 0..relay.n_tasks() {
        let (g, r) = (
            golden.suggestion_trace(task).unwrap(),
            relay.suggestion_trace(task).unwrap(),
        );
        assert_eq!(g.len(), r.len());
        for (i, (g, r)) in g.iter().zip(&r).enumerate() {
            assert_eq!(g, r, "task {task}: trace diverged at observation {i}");
            // The encoded vectors agree bitwise, not just structurally.
            let (ge, re) = (space.encode(g), space.encode(r));
            assert_eq!(ge.len(), re.len());
            for (a, b) in ge.iter().zip(&re) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
