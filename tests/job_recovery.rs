//! Kill-anywhere crash-recovery suite for `otune tune-serve`.
//!
//! The real binary is killed at every wave, checkpoint, and
//! journal-append boundary — via the `OTUNE_CRASH_AT` hook, which
//! `std::process::abort()`s right after the matching fsynced append
//! (kill -9 semantics: no destructors, no unwinding) — plus a genuine
//! SIGKILL mid-serve and a mid-append byte truncation. In every case the
//! resumed campaign must reproduce the uninterrupted golden run's fleet
//! summary and per-task suggestion traces `to_bits`-identically.

use otune_jobs::{FleetSummary, JobEngine, Journal, CRASH_ENV};
use otune_space::{spark_space, ClusterScale};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::OnceLock;

const TASKS: &str = "2";
const BUDGET: &str = "3";
const SEED: &str = "13";

fn job_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("otune-jobrec-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `otune tune-serve --auto` against `journal`, optionally arming the
/// crash hook and overriding the journal sync policy.
fn run_cli_opts(journal: &Path, crash: Option<&str>, sync: Option<&str>) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_otune"));
    cmd.args([
        "tune-serve",
        "--journal",
        journal.to_str().unwrap(),
        "--tasks",
        TASKS,
        "--budget",
        BUDGET,
        "--seed",
        SEED,
        "--checkpoint-every",
        "1",
        "--auto",
    ]);
    if let Some(policy) = sync {
        cmd.args(["--sync", policy]);
    }
    cmd.env_remove(CRASH_ENV);
    if let Some(point) = crash {
        cmd.env(CRASH_ENV, point);
    }
    cmd.output().expect("spawn otune")
}

fn run_cli(journal: &Path, crash: Option<&str>) -> std::process::Output {
    run_cli_opts(journal, crash, None)
}

/// The uninterrupted run's summary, per-task encoded suggestion traces,
/// and total journal appends (the kill-anywhere enumeration bound).
struct GoldenRun {
    summary: FleetSummary,
    traces: Vec<Vec<Vec<u64>>>,
    n_appends: usize,
}

fn golden() -> &'static GoldenRun {
    static GOLDEN: OnceLock<GoldenRun> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let journal = job_dir("golden").join("journal.jsonl");
        let _ = std::fs::remove_file(&journal);
        let out = run_cli(&journal, None);
        assert!(out.status.success(), "golden run failed: {out:?}");
        let n_appends = Journal::load(&journal).unwrap().entries.len();
        let (summary, traces) = inspect(&journal);
        GoldenRun {
            summary,
            traces,
            n_appends,
        }
    })
}

/// Open a finished journal in-process and extract the summary plus the
/// per-task suggestion traces, encoded to mantissa bits.
fn inspect(journal: &Path) -> (FleetSummary, Vec<Vec<Vec<u64>>>) {
    let space = spark_space(ClusterScale::hibench());
    let (telemetry, _sink) = otune_core::telemetry::Telemetry::ring(4096);
    let engine = JobEngine::open(journal, telemetry).expect("journal resumes");
    assert!(engine.is_completed(), "campaign must have completed");
    let summary = engine.summary().unwrap().clone();
    let traces = (0..engine.n_tasks())
        .map(|task| {
            engine
                .suggestion_trace(task)
                .unwrap()
                .iter()
                .map(|c| space.encode(c).iter().map(|v| v.to_bits()).collect())
                .collect()
        })
        .collect();
    (summary, traces)
}

/// Kill the campaign at `crash`, optionally tear bytes off the journal
/// tail, resume, and demand bitwise equality with the golden run.
fn crash_resume_and_verify(name: &str, crash: &str, tear_bytes: Option<u64>) {
    let gold = golden();
    let journal = job_dir(name).join("journal.jsonl");
    let _ = std::fs::remove_file(&journal);

    let out = run_cli(&journal, Some(crash));
    assert!(
        !out.status.success(),
        "{name}: the armed run must die at {crash}, got {out:?}"
    );
    if let Some(tear) = tear_bytes {
        // A torn append: the crash cut the write mid-line.
        let len = std::fs::metadata(&journal).unwrap().len();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&journal)
            .unwrap();
        file.set_len(len.saturating_sub(tear)).unwrap();
    }

    let out = run_cli(&journal, None);
    assert!(out.status.success(), "{name}: resume failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("completed"),
        "{name}: resume must complete the campaign: {stdout}"
    );

    let (summary, traces) = inspect(&journal);
    assert_eq!(
        summary, gold.summary,
        "{name}: resumed summary diverged from the golden run"
    );
    assert_eq!(
        traces, gold.traces,
        "{name}: resumed suggestion traces diverged from the golden run"
    );
}

#[test]
fn kill_at_every_wave_boundary_resumes_bitwise() {
    let budget: u64 = BUDGET.parse().unwrap();
    for wave in 0..budget {
        crash_resume_and_verify(&format!("wave{wave}"), &format!("wave:{wave}"), None);
    }
}

#[test]
fn kill_at_every_checkpoint_boundary_resumes_bitwise() {
    let budget: u64 = BUDGET.parse().unwrap();
    // checkpoint_every = 1: a checkpoint lands after every wave except
    // the last (completion supersedes the final periodic checkpoint), at
    // cursors 1..budget.
    for cursor in 1..budget {
        crash_resume_and_verify(
            &format!("checkpoint{cursor}"),
            &format!("checkpoint:{cursor}"),
            None,
        );
    }
}

#[test]
fn kill_at_every_journal_append_resumes_bitwise() {
    // The golden journal's append count enumerates every boundary —
    // killing after each one covers "anywhere in the journal".
    let n = golden().n_appends;
    assert!(n >= 4, "campaign journals several appends, got {n}");
    for append in 1..=n {
        crash_resume_and_verify(
            &format!("append{append}"),
            &format!("append:{append}"),
            None,
        );
    }
}

#[test]
fn mid_append_byte_truncation_heals_and_resumes_bitwise() {
    // Tear into the middle of the final fsynced line: the loader must
    // skip the torn tail, `open` must heal it, and the resumed campaign
    // re-runs the lost wave to the identical outcome.
    crash_resume_and_verify("tear-wave", "wave:1", Some(7));
    // Tear a checkpoint marker: the loader skips it and replay re-drives
    // every journaled wave before it.
    crash_resume_and_verify("tear-checkpoint", "checkpoint:2", Some(9));
}

#[test]
fn kill_at_every_fsync_boundary_resumes_bitwise_under_each_policy() {
    // Enumerate every fsync boundary under each group-commit policy:
    // arm `fsync:n` for n = 1, 2, … until a run has fewer than n fsyncs
    // and survives — that exhausts the boundary space for the policy.
    let gold = golden();
    for policy in ["every", "batch:3", "barrier"] {
        let slug = policy.replace(':', "-");
        let mut boundaries = 0u64;
        for n in 1..=200u64 {
            let journal = job_dir(&format!("fsync-{slug}-{n}")).join("journal.jsonl");
            let _ = std::fs::remove_file(&journal);
            let out = run_cli_opts(&journal, Some(&format!("fsync:{n}")), Some(policy));
            if out.status.success() {
                break; // the whole campaign pays fewer than n fsyncs
            }
            boundaries = n;
            let out = run_cli_opts(&journal, None, Some(policy));
            assert!(
                out.status.success(),
                "fsync:{n} under {policy}: resume failed: {out:?}"
            );
            let (summary, traces) = inspect(&journal);
            assert_eq!(
                summary, gold.summary,
                "fsync:{n} under {policy}: summary diverged"
            );
            assert_eq!(
                traces, gold.traces,
                "fsync:{n} under {policy}: traces diverged"
            );
        }
        assert!(
            (1..200).contains(&boundaries),
            "{policy}: expected a bounded, non-empty fsync enumeration, got {boundaries}"
        );
    }
}

#[test]
fn completed_journal_bytes_identical_across_sync_policies() {
    // Group commit changes fsync cadence, never journal content: an
    // uninterrupted campaign must write byte-identical journals under
    // every policy. (A fresh `every` run is the reference — the shared
    // golden journal accrues `JobResumed` lines from `inspect` calls.)
    let reference = job_dir("bytes-every").join("journal.jsonl");
    let _ = std::fs::remove_file(&reference);
    let out = run_cli_opts(&reference, None, Some("every"));
    assert!(out.status.success(), "every: run failed: {out:?}");
    let gold_bytes = std::fs::read(&reference).unwrap();
    for policy in ["batch:8", "barrier"] {
        let slug = policy.replace(':', "-");
        let journal = job_dir(&format!("bytes-{slug}")).join("journal.jsonl");
        let _ = std::fs::remove_file(&journal);
        let out = run_cli_opts(&journal, None, Some(policy));
        assert!(out.status.success(), "{policy}: run failed: {out:?}");
        assert_eq!(
            std::fs::read(&journal).unwrap(),
            gold_bytes,
            "{policy}: journal bytes diverged from the default policy"
        );
    }
}

#[test]
fn sigkill_mid_serve_resumes_bitwise() {
    let gold = golden();
    let journal = job_dir("sigkill").join("journal.jsonl");
    let _ = std::fs::remove_file(&journal);

    // Serve interactively, complete one wave, then SIGKILL the process —
    // no crash hook, no clean shutdown, no final checkpoint.
    let mut child = Command::new(env!("CARGO_BIN_EXE_otune"))
        .args([
            "tune-serve",
            "--journal",
            journal.to_str().unwrap(),
            "--tasks",
            TASKS,
            "--budget",
            BUDGET,
            "--seed",
            SEED,
            "--checkpoint-every",
            "1",
        ])
        .env_remove(CRASH_ENV)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn otune tune-serve");
    child.stdin.as_mut().unwrap().write_all(b"wave\n").unwrap();
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    loop {
        let line = lines.next().expect("serve must answer before EOF").unwrap();
        if line.contains("wave 0 completed") {
            break;
        }
    }
    child.kill().unwrap(); // SIGKILL
    child.wait().unwrap();

    let out = run_cli(&journal, None);
    assert!(out.status.success(), "resume after SIGKILL failed: {out:?}");
    let (summary, traces) = inspect(&journal);
    assert_eq!(summary, gold.summary, "summary diverged after SIGKILL");
    assert_eq!(traces, gold.traces, "traces diverged after SIGKILL");
}
