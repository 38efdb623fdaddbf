//! Property tests for the job journal and its replay: arbitrary event
//! sequences × arbitrary truncation points never panic the loader, torn
//! tails heal, a crash anywhere resumes to the uninterrupted campaign
//! (also when every later wave runs in a freshly reopened engine), and
//! journals in the line format of builds that embedded tuner
//! snapshots in their checkpoints still resume — or fail with a typed
//! `ReplayGap` where an old compaction dropped their waves.

use otune_jobs::{
    CampaignSpec, DlqEntry, FailureRecord, JobCheckpoint, JobEngine, JobError, JobEvent, Journal,
    JournalEntry, TaskFault,
};
use otune_sparksim::FaultKind;
use otune_telemetry::{metric, SyncPolicy, Telemetry};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn case_path(name: &str) -> PathBuf {
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "otune-jobprop-{name}-{}-{case}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.jsonl");
    let _ = std::fs::remove_file(&path);
    path
}

/// Deterministically decode one generated tuple into a journal event.
fn synth_event(code: u8, n: u64, x: f64) -> JobEvent {
    let task = (n % 8) as usize;
    let wave = n % 100;
    match code % 5 {
        0 => JobEvent::CheckpointCreated {
            checkpoint: JobCheckpoint { wave_cursor: wave },
        },
        1 => JobEvent::JobPaused { wave_cursor: wave },
        2 => JobEvent::RetryScheduled {
            task,
            wave,
            attempt: (n % 5) as usize + 1,
            backoff_s: x,
        },
        3 => JobEvent::TaskFailed {
            task,
            wave,
            attempt: (n % 5) as usize + 1,
            status: "oom_killed".to_string(),
        },
        _ => JobEvent::ItemDeadLettered {
            entry: DlqEntry {
                task,
                task_id: format!("t{task}"),
                wave,
                attempts: 3,
                failures: vec![FailureRecord {
                    wave,
                    attempt: 1,
                    partial_runtime_s: x,
                    resource: x * 0.5,
                    status: "timeout_killed".to_string(),
                    backoff_s: x.min(60.0),
                }],
            },
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn truncated_journal_loads_without_panic_and_heals(
        codes in proptest::collection::vec((0u8..5, 0u64..10_000, 0.0f64..1e6), 0..25),
        cut_frac in 0.0f64..1.0,
    ) {
        let path = case_path("trunc");
        let mut journal = Journal::open(&path).unwrap();
        let entries: Vec<JournalEntry> = codes
            .iter()
            .enumerate()
            .map(|(i, (c, n, x))| JournalEntry {
                seq: i as u64 + 1,
                event: synth_event(*c, *n, *x),
            })
            .collect();
        for e in &entries {
            journal.append(e).unwrap();
        }
        drop(journal);

        // Truncate at an arbitrary byte offset — a crash can cut a line
        // anywhere — and compute the exactly-expected surviving prefix.
        let bytes = std::fs::read(&path).unwrap();
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let mut expected = 0usize;
        let mut expect_torn = 0u64;
        let mut start = 0usize;
        for e in &entries {
            let line_len = serde_json::to_string(e).unwrap().len();
            let end = start + line_len;
            if cut >= end {
                expected += 1;
            } else if cut > start {
                expect_torn = 1;
            }
            start = end + 1; // newline
        }

        let load = Journal::load(&path).unwrap();
        prop_assert_eq!(load.entries.len(), expected);
        prop_assert_eq!(&load.entries[..], &entries[..expected]);
        prop_assert_eq!(load.torn_lines, expect_torn);

        // Healing: re-open and append — the new entry must parse cleanly
        // regardless of how the tail was torn.
        let sentinel = JournalEntry {
            seq: 999_999,
            event: JobEvent::JobPaused { wave_cursor: 77 },
        };
        let mut journal = Journal::open(&path).unwrap();
        journal.append(&sentinel).unwrap();
        drop(journal);
        let load = Journal::load(&path).unwrap();
        prop_assert_eq!(load.entries.len(), expected + 1);
        prop_assert_eq!(load.entries.last().unwrap(), &sentinel);
        prop_assert_eq!(load.torn_lines, expect_torn);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// Group commit loses exactly the unsynced suffix on a crash: every
    /// entry acked by the policy (batch boundary or explicit barrier —
    /// the engine barriers after every checkpoint) survives, no entry
    /// past the last sync point does, and the tail is never torn (a
    /// whole batch is one write).
    #[test]
    fn group_commit_crash_loses_only_unsynced_suffix(
        codes in proptest::collection::vec((0u8..5, 0u64..10_000, 0.0f64..1e6), 1..30),
        batch in 1usize..6,
        barrier_every in proptest::option::of(1usize..7),
        barrier_policy in 0u8..2,
    ) {
        let path = case_path("groupcommit");
        let policy = if barrier_policy == 1 {
            SyncPolicy::Barrier
        } else {
            SyncPolicy::Batch(batch)
        };
        let mut journal = Journal::open_with(&path, policy).unwrap();
        let entries: Vec<JournalEntry> = codes
            .iter()
            .enumerate()
            .map(|(i, (c, n, x))| JournalEntry {
                seq: i as u64 + 1,
                event: synth_event(*c, *n, *x),
            })
            .collect();
        // Mirror the writer's group-commit model: `acked` is the prefix
        // the disk must hold after a crash.
        let mut acked = 0usize;
        let mut pending = 0usize;
        for (i, e) in entries.iter().enumerate() {
            journal.append(e).unwrap();
            pending += 1;
            if let SyncPolicy::Batch(n) = policy {
                if pending >= n {
                    acked = i + 1;
                    pending = 0;
                }
            }
            if barrier_every.is_some_and(|k| (i + 1) % k == 0) {
                journal.barrier().unwrap();
                acked = i + 1;
                pending = 0;
            }
        }
        // Crash: no Drop flush, the staged suffix dies with the process.
        std::mem::forget(journal);

        let load = Journal::load(&path).unwrap();
        prop_assert_eq!(load.torn_lines, 0, "group commit never tears a tail");
        prop_assert_eq!(load.entries.len(), acked);
        prop_assert_eq!(&load.entries[..], &entries[..acked]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// A crash after any wave resumes to the uninterrupted campaign:
    /// OOM faults drive retries and dead letters, the engine is dropped
    /// without `pause()` — or abandoned without even a flush, losing the
    /// unsynced suffix of a lazy sync policy — and `open` must rebuild
    /// the same summary, the same DLQ and every task's suggestion trace
    /// from the journaled waves alone. With `relay`, every wave after
    /// the crash runs in a freshly opened engine that is then dropped,
    /// so each wave boundary is also a crash point. With `burst`, task 0
    /// fails three waves in a row and, unless dead-lettered first, takes
    /// the `τ_consec` fallback, which later opens must replay.
    #[test]
    fn crash_anywhere_resumes_to_the_uninterrupted_run(
        seed in 0u64..1000,
        checkpoint_every in 0u64..4,
        oom_rate in 0.2f64..0.6,
        max_retries in 1usize..5,
        crash_after in 0usize..5,
        policy in 0usize..3,
        (lose_unsynced, relay, burst) in (any::<bool>(), any::<bool>(), any::<bool>()),
    ) {
        let scripted_faults = if burst {
            [FaultKind::ExecutorOom, FaultKind::ExecutorOom, FaultKind::TimeoutKill]
                .into_iter()
                .zip(1..)
                .map(|(kind, wave)| TaskFault { task: 0, wave, kind })
                .collect()
        } else {
            Vec::new()
        };
        let spec = CampaignSpec {
            job_id: "prop-crash".to_string(),
            n_tasks: 2,
            budget: 5,
            seed,
            max_retries,
            checkpoint_every,
            fault_spec: Some(format!("oom:{oom_rate}")),
            scripted_faults,
            ..CampaignSpec::default()
        };
        let policy = [SyncPolicy::Every, SyncPolicy::Batch(3), SyncPolicy::Barrier][policy];
        let (t, _s) = Telemetry::ring(1024);
        let mut reference =
            JobEngine::start_with(spec.clone(), &case_path("crash-ref"), t, policy).unwrap();
        let summary = reference.run_to_completion().unwrap().clone();
        if burst && max_retries >= 4 {
            let counters = reference.telemetry().snapshot().unwrap().counters;
            prop_assert!(counters.get(metric::FALLBACKS_TRIGGERED).is_some_and(|&n| n >= 1));
        }

        let path = case_path("crash");
        let (t, _s) = Telemetry::ring(1024);
        let mut engine = JobEngine::start_with(spec, &path, t, policy).unwrap();
        for _ in 0..crash_after {
            engine.run_wave().unwrap();
        }
        if lose_unsynced {
            std::mem::forget(engine); // no Drop flush: the staged suffix is lost
        } else {
            drop(engine);
        }

        let open = || {
            let (t, _s) = Telemetry::ring(1024);
            JobEngine::open_with(&path, t, policy).unwrap()
        };
        let mut resumed = open();
        while relay && resumed.run_wave().unwrap().is_some() {
            drop(resumed);
            resumed = open();
        }
        prop_assert_eq!(resumed.run_to_completion().unwrap(), &summary);
        prop_assert_eq!(resumed.dlq(), reference.dlq());
        for task in 0..2 {
            prop_assert_eq!(
                resumed.suggestion_trace(task).unwrap(),
                reference.suggestion_trace(task).unwrap()
            );
        }
    }
}

/// The spec of the campaign rendered in the older line format below.
fn legacy_spec() -> CampaignSpec {
    CampaignSpec {
        job_id: "legacy".to_string(),
        n_tasks: 2,
        budget: 5,
        seed: 21,
        checkpoint_every: 1,
        ..CampaignSpec::default()
    }
}

/// Journal [`legacy_spec`] for three waves — two, a crash, a resume,
/// one more, a crash — and render the entries in the line format of the
/// builds whose checkpoints embedded every task's tuner snapshot, run
/// with `checkpoint_full_every: 2`: the spec carries that key, the first
/// checkpoint is a full one with `tasks` and `dlq`, later ones are
/// `CheckpointDelta` overlays on it, and a `CheckpointLoaded` line
/// precedes each resume. Seqs are renumbered densely.
fn legacy_journal_lines() -> Vec<String> {
    let path = case_path("legacy-src");
    let (t, _s) = Telemetry::ring(1024);
    let mut engine = JobEngine::start(legacy_spec(), &path, t.clone()).unwrap();
    engine.run_wave().unwrap();
    engine.run_wave().unwrap();
    drop(engine);
    let mut engine = JobEngine::open(&path, t).unwrap();
    engine.run_wave().unwrap();
    let task_ids: Vec<String> = (0..engine.n_tasks())
        .map(|i| engine.task_id(i).to_string())
        .collect();
    drop(engine);

    // The older checkpoints' per-task payload, an embedded tuner
    // snapshot; resume no longer reads it.
    let tasks: Vec<String> = task_ids
        .iter()
        .enumerate()
        .map(|(task, task_id)| {
            let seed = 21 + task;
            let snapshot = format!(
                r#"{{"task_id":"{task_id}","seed":{seed},"budget":5,"history":[],"seeded_idx":[],"pending":null,"stopped":false,"degraded_streak":0,"failure_streak":0,"restarts":0,"round_iterations":0,"own_records":[]}}"#
            );
            format!(
                r#"{{"task":{task},"task_id":"{task_id}","snapshot":{snapshot},"ledger":[],"dead":false}}"#
            )
        })
        .collect();
    let tasks = format!("[{}]", tasks.join(","));

    let renumbered = |seq: usize, entry: JournalEntry| {
        serde_json::to_string(&JournalEntry {
            seq: seq as u64,
            ..entry
        })
        .unwrap()
    };
    let mut lines: Vec<String> = Vec::new();
    let mut full_seq = None;
    for entry in Journal::load(&path).unwrap().entries {
        let mut seq = lines.len() + 1;
        let line = match &entry.event {
            JobEvent::JobStarted { .. } => {
                let line = renumbered(seq, entry);
                let legacy = line.replace(
                    r#""checkpoint_every":1,"#,
                    r#""checkpoint_every":1,"checkpoint_full_every":2,"#,
                );
                assert_ne!(legacy, line, "spec layout changed: {line}");
                legacy
            }
            JobEvent::CheckpointCreated { checkpoint } => {
                let cursor = checkpoint.wave_cursor;
                match full_seq {
                    None => {
                        full_seq = Some(seq);
                        format!(
                            r#"{{"seq":{seq},"event":{{"CheckpointCreated":{{"checkpoint":{{"wave_cursor":{cursor},"tasks":{tasks},"dlq":[]}}}}}}}}"#
                        )
                    }
                    Some(base) => format!(
                        r#"{{"seq":{seq},"event":{{"CheckpointDelta":{{"delta":{{"wave_cursor":{cursor},"base_seq":{base},"changed":{tasks},"dlq":[]}}}}}}}}"#
                    ),
                }
            }
            JobEvent::JobResumed { wave_cursor, .. } => {
                lines.push(format!(
                    r#"{{"seq":{seq},"event":{{"CheckpointLoaded":{{"wave_cursor":{wave_cursor}}}}}}}"#
                ));
                seq += 1;
                renumbered(seq, entry)
            }
            _ => renumbered(seq, entry),
        };
        lines.push(line);
    }
    lines
}

fn write_lines(path: &PathBuf, lines: &[String]) {
    std::fs::write(path, lines.join("\n") + "\n").unwrap();
}

#[test]
fn journal_from_snapshot_checkpoint_builds_resumes_bitwise() {
    let (t, _s) = Telemetry::ring(1024);
    let mut reference = JobEngine::start(legacy_spec(), &case_path("legacy-ref"), t).unwrap();
    let summary = reference.run_to_completion().unwrap().clone();

    let lines = legacy_journal_lines();
    let retired = lines
        .iter()
        .filter(|l| l.contains(r#""CheckpointDelta""#) || l.contains(r#""CheckpointLoaded""#))
        .count();
    assert_eq!(retired, 3, "two deltas and one loaded line: {lines:#?}");
    let path = case_path("legacy");
    write_lines(&path, &lines);

    // The full checkpoint still parses (its `tasks` and `dlq` are
    // ignored); the retired event kinds cost exactly their own lines.
    let load = Journal::load(&path).unwrap();
    assert_eq!(load.torn_lines, retired as u64);
    assert!(load.entries.iter().any(|e| matches!(
        e.event,
        JobEvent::CheckpointCreated {
            checkpoint: JobCheckpoint { wave_cursor: 1 }
        }
    )));

    let (t, _s) = Telemetry::ring(1024);
    let mut resumed = JobEngine::open(&path, t).unwrap();
    assert_eq!(resumed.wave_cursor(), 3);
    assert_eq!(resumed.run_to_completion().unwrap(), &summary);
    assert_eq!(resumed.dlq(), reference.dlq());
    for task in 0..2 {
        assert_eq!(
            resumed.suggestion_trace(task).unwrap(),
            reference.suggestion_trace(task).unwrap()
        );
    }
}

#[test]
fn compacted_journal_is_a_replay_gap_not_a_restart() {
    // The retired `jobs compact` kept `JobStarted`, the last full
    // checkpoint and everything after it. Its waves before that
    // checkpoint are gone, whether or not later waves follow it.
    let lines = legacy_journal_lines();
    let full = lines
        .iter()
        .rposition(|l| l.contains(r#""CheckpointCreated""#))
        .unwrap();
    let compacted: Vec<String> = std::iter::once(lines[0].clone())
        .chain(lines[full..].iter().cloned())
        .collect();
    for kept in [compacted.len(), 2] {
        let path = case_path("compacted");
        write_lines(&path, &compacted[..kept]);
        let (t, _s) = Telemetry::ring(1024);
        match JobEngine::open(&path, t) {
            Err(JobError::ReplayGap { expected: 0, found }) => assert!(found > 0),
            Err(e) => panic!("{kept} lines: expected a replay gap at wave 0, got {e}"),
            Ok(engine) => panic!(
                "{kept} lines: resumed at wave {} instead of failing",
                engine.wave_cursor()
            ),
        }
    }
}

#[test]
fn checkpoint_event_round_trips_through_journal() {
    // A full campaign journal — checkpoint markers included — must
    // reload to identical entries.
    let path = case_path("roundtrip");
    let (t, _s) = Telemetry::ring(1024);
    let spec = CampaignSpec {
        n_tasks: 2,
        budget: 3,
        checkpoint_every: 1,
        ..CampaignSpec::default()
    };
    let mut engine = JobEngine::start(spec, &path, t).unwrap();
    engine.run_to_completion().unwrap();
    drop(engine);

    let load = Journal::load(&path).unwrap();
    assert_eq!(load.torn_lines, 0);
    assert!(load
        .entries
        .iter()
        .any(|e| matches!(e.event, JobEvent::CheckpointCreated { .. })));
    for entry in &load.entries {
        let line = serde_json::to_string(entry).unwrap();
        let back: JournalEntry = serde_json::from_str(&line).unwrap();
        assert_eq!(&back, entry);
    }
}
