//! Journal throughput benchmark: durable waves/sec at the `Journal`
//! layer for a synthetic 200-task campaign stream.
//!
//! Each wave journals one small per-item audit record per task (the
//! failure/retry path's append granularity), one `WaveCompleted` entry
//! embedding every outcome, and the engine's checkpoint — a
//! `CheckpointCreated` commit marker followed by a sync barrier. Three
//! arms replay the identical stream of events under different sync
//! policies:
//!
//! * `every` — the legacy contract: one fsync per append.
//! * `batch8` — group commit (`batch:8`): one fsync per eight appends,
//!   plus the checkpoint barrier.
//! * `barrier` — fsyncs only at the checkpoint barriers.
//!
//! The acceptance bar (`OTUNE_BENCH_ASSERT=1`): `batch8` must lift wave
//! throughput ≥ 5× over `every` at 200 tasks (≥ 2× in
//! `OTUNE_BENCH_QUICK=1` smoke runs, which shrink the wave count).
//! Results land in `BENCH_journal_throughput.json` under the results
//! directory; `OTUNE_RESULTS_DIR` moves the output.

use otune_bench::{results_dir, Table};
use otune_core::telemetry::SyncPolicy;
use otune_jobs::{ItemOutcome, JobCheckpoint, JobEvent, Journal, JournalEntry};
use otune_space::{ConfigSpace, Parameter};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::time::Instant;

/// Campaign width (the acceptance bar is stated at 200 tasks).
const N_TASKS: usize = 200;

fn toy_space() -> ConfigSpace {
    ConfigSpace::new(vec![
        Parameter::float("alpha", 0.1, 8.0, 1.0),
        Parameter::int("cores", 1, 64, 8),
    ])
}

/// The per-wave event stream shared by every arm: per-item audit
/// records, the embedding `WaveCompleted`, and the checkpoint marker.
fn wave_events(space: &ConfigSpace, wave: usize) -> Vec<JobEvent> {
    let mut rng = StdRng::seed_from_u64(wave as u64);
    let mut events: Vec<JobEvent> = (0..N_TASKS)
        .map(|task| JobEvent::TaskFailed {
            task,
            wave: wave as u64,
            attempt: 1,
            status: "audit".to_string(),
        })
        .collect();
    let outcomes = (0..N_TASKS)
        .map(|task| ItemOutcome {
            task,
            config: space.sample(&mut rng),
            runtime_s: 50.0 + task as f64,
            resource: 10.0,
            failed: false,
            status: "success".to_string(),
            attempt: 0,
            dead_lettered: false,
        })
        .collect();
    events.push(JobEvent::WaveCompleted {
        wave: wave as u64,
        outcomes,
    });
    events.push(JobEvent::CheckpointCreated {
        checkpoint: JobCheckpoint {
            wave_cursor: wave as u64 + 1,
        },
    });
    events
}

struct ArmResult {
    wall_s: f64,
    fsyncs: u64,
    bytes: u64,
}

/// Replay `waves` synthetic waves through a journal under `policy`,
/// with the engine's barrier after every checkpoint. Returns wall time,
/// fsyncs paid, and bytes written.
fn run_arm(name: &str, policy: SyncPolicy, waves: usize) -> ArmResult {
    let dir = std::env::temp_dir().join(format!("otune-jthr-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("journal.jsonl");
    let _ = std::fs::remove_file(&path);

    let space = toy_space();
    // Build the event stream up front so the timed loop measures the
    // journal (serialize + write + sync), not workload synthesis.
    let stream: Vec<JobEvent> = (0..waves).flat_map(|w| wave_events(&space, w)).collect();

    let mut journal = Journal::open_with(&path, policy).expect("journal opens");
    let start = Instant::now();
    for (i, event) in stream.into_iter().enumerate() {
        let checkpoint = matches!(event, JobEvent::CheckpointCreated { .. });
        journal
            .append(&JournalEntry {
                seq: i as u64 + 1,
                event,
            })
            .expect("append");
        if checkpoint {
            journal.barrier().expect("barrier");
        }
    }
    journal.barrier().expect("final barrier");
    let wall_s = start.elapsed().as_secs_f64();
    let fsyncs = journal.fsyncs();
    drop(journal);

    let bytes = Journal::segments(&path)
        .expect("segments")
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum();
    let _ = std::fs::remove_dir_all(&dir);
    ArmResult {
        wall_s,
        fsyncs,
        bytes,
    }
}

#[derive(Serialize)]
struct Entry {
    arm: &'static str,
    policy: &'static str,
    waves_per_s: f64,
    fsyncs: u64,
    bytes_written: u64,
    wall_s: f64,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    n_tasks: usize,
    waves: usize,
    quick: bool,
    note: &'static str,
    speedup_batch_vs_every: f64,
    speedup_barrier_vs_every: f64,
    results: Vec<Entry>,
}

fn main() {
    let quick = std::env::var("OTUNE_BENCH_QUICK").is_ok_and(|v| v != "0");
    let assert_targets = std::env::var("OTUNE_BENCH_ASSERT").is_ok_and(|v| v != "0");
    let waves = if quick { 4 } else { 16 };

    let arms: [(&'static str, &'static str, ArmResult); 3] = [
        ("every", "every", run_arm("every", SyncPolicy::Every, waves)),
        (
            "batch8",
            "batch:8",
            run_arm("batch8", SyncPolicy::Batch(8), waves),
        ),
        (
            "barrier",
            "barrier",
            run_arm("barrier", SyncPolicy::Barrier, waves),
        ),
    ];

    let mut table = Table::new(
        "Journal throughput — durable waves/sec at 200 tasks",
        &["arm", "policy", "waves/s", "fsyncs", "MiB"],
    );
    let mut entries = Vec::new();
    for (arm, policy, res) in &arms {
        table.row(vec![
            arm.to_string(),
            policy.to_string(),
            format!("{:.1}", waves as f64 / res.wall_s),
            res.fsyncs.to_string(),
            format!("{:.1}", res.bytes as f64 / (1024.0 * 1024.0)),
        ]);
        entries.push(Entry {
            arm,
            policy,
            waves_per_s: waves as f64 / res.wall_s,
            fsyncs: res.fsyncs,
            bytes_written: res.bytes,
            wall_s: res.wall_s,
        });
    }
    table.print();

    let speedup_batch = arms[0].2.wall_s / arms[1].2.wall_s;
    let speedup_barrier = arms[0].2.wall_s / arms[2].2.wall_s;
    println!("group commit: batch:8 {speedup_batch:.2}x, barrier {speedup_barrier:.2}x over every");
    assert!(
        arms[1].2.fsyncs < arms[0].2.fsyncs && arms[2].2.fsyncs < arms[1].2.fsyncs,
        "fsync counts must strictly shrink across arms: {} / {} / {}",
        arms[0].2.fsyncs,
        arms[1].2.fsyncs,
        arms[2].2.fsyncs,
    );
    if assert_targets {
        let floor = if quick { 2.0 } else { 5.0 };
        assert!(
            speedup_batch >= floor,
            "batch:8 speedup is only {speedup_batch:.2}x (floor {floor}x)"
        );
    }

    let out = results_dir().join("BENCH_journal_throughput.json");
    let doc = Report {
        bench: "journal_throughput",
        n_tasks: N_TASKS,
        waves,
        quick,
        note: "per wave: one audit append per task, one WaveCompleted with \
               every outcome, one checkpoint marker + sync barrier. every pays \
               one fsync per append; batch8 group-commits eight appends per \
               fsync; barrier fsyncs only at the checkpoint barriers",
        speedup_batch_vs_every: speedup_batch,
        speedup_barrier_vs_every: speedup_barrier,
        results: entries,
    };
    std::fs::write(
        &out,
        serde_json::to_string_pretty(&doc).expect("serializable"),
    )
    .expect("results dir is writable");
    println!("json: {}", out.display());
}
