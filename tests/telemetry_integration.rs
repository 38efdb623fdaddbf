//! The observability layer against the full service: driving a tuning
//! task through the controller must produce a complete, ordered,
//! replayable event stream and a coherent metrics snapshot.

use otune_core::controller::TaskState;
use otune_core::prelude::*;
use otune_core::telemetry::{
    metric, read_healed, Event, EventKind, JsonlSink, StopReason, SuggestionKind,
};
use otune_meta::extract_meta_features;

fn toy_space() -> ConfigSpace {
    use otune_space::Parameter;
    ConfigSpace::new(vec![
        Parameter::int("n", 1, 50, 10),
        Parameter::int("m", 1, 32, 8),
    ])
}

fn toy_eval(c: &Configuration) -> (f64, f64) {
    let n = c[0].as_int().unwrap() as f64;
    let m = c[1].as_int().unwrap() as f64;
    (400.0 / n + 30.0 / m + 10.0, n * (1.0 + 0.5 * m))
}

/// Drive one task to budget exhaustion; return the emitted events.
fn drive_task(telemetry: Telemetry, budget: usize) -> Telemetry {
    let mut ctl = OnlineTuneController::new();
    ctl.set_telemetry(telemetry.clone());
    let h = ctl.create_task(
        "toy-task",
        toy_space(),
        TunerOptions {
            budget,
            t_max: Some(100.0),
            enable_meta: false,
            ..TunerOptions::default()
        },
    );
    for _ in 0..budget {
        let cfg = ctl.request_config(&h, &[]).unwrap();
        let (rt, r) = toy_eval(&cfg);
        ctl.report_result(&h, cfg, rt, r, &[], None).unwrap();
    }
    // One more request flips the task to Stopped.
    let _ = ctl.request_config(&h, &[]).unwrap();
    assert_eq!(ctl.state(&h), Ok(TaskState::Stopped));
    telemetry
}

fn labels(events: &[Event]) -> Vec<&'static str> {
    events.iter().map(|e| e.kind.label()).collect()
}

#[test]
fn full_event_stream_is_ordered_and_complete() {
    let (telemetry, sink) = Telemetry::ring(4096);
    drive_task(telemetry, 12);
    let events = sink.events();
    let labels = labels(&events);

    // Sequence numbers are strictly increasing.
    for pair in events.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "seq order: {:?}", labels);
    }
    // Every event carries the task label.
    assert!(events.iter().all(|e| e.task == "toy-task"));

    // Lifecycle shape: registration first, stop last.
    assert_eq!(labels.first(), Some(&"TaskRegistered"));
    assert_eq!(labels.last(), Some(&"TaskStopped"));
    match &events.last().unwrap().kind {
        EventKind::TaskStopped { reason } => {
            assert_eq!(*reason, StopReason::BudgetExhausted)
        }
        k => panic!("unexpected final event {k:?}"),
    }

    // Every iteration produced a suggestion and an observation.
    let suggestions: Vec<&Event> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::SuggestionMade { .. }))
        .collect();
    let observations = labels
        .iter()
        .filter(|l| **l == "ObservationReported")
        .count();
    assert_eq!(suggestions.len(), 12);
    assert_eq!(observations, 12);

    // The provenance arc: initial design first, BO afterwards.
    let sources: Vec<SuggestionKind> = suggestions
        .iter()
        .map(|e| match &e.kind {
            EventKind::SuggestionMade { source, .. } => *source,
            _ => unreachable!(),
        })
        .collect();
    assert_eq!(sources[0], SuggestionKind::InitialDesign);
    assert!(
        sources.contains(&SuggestionKind::Bo),
        "BO iterations happened: {sources:?}"
    );
    let first_bo = sources
        .iter()
        .position(|s| *s == SuggestionKind::Bo)
        .unwrap();
    assert!(
        sources[..first_bo]
            .iter()
            .all(|s| matches!(s, SuggestionKind::InitialDesign | SuggestionKind::WarmStart)),
        "nothing but the initial design precedes BO: {sources:?}"
    );

    // Surrogates were fitted once BO started.
    assert!(labels.contains(&"SurrogateFitted"));

    // Suggestions interleave with observations (suggest → observe per
    // iteration, never two suggestions back to back).
    let mut pending = 0i32;
    for l in &labels {
        match *l {
            "SuggestionMade" => {
                pending += 1;
                assert!(pending <= 1, "two suggestions without an observation");
            }
            "ObservationReported" => pending -= 1,
            _ => {}
        }
    }
}

#[test]
fn warm_start_event_appears_in_transfer_scenario() {
    let (telemetry, sink) = Telemetry::ring(4096);
    let mut ctl = OnlineTuneController::new();
    ctl.set_telemetry(telemetry.clone());
    let space = spark_space(ClusterScale::hibench());

    // Two completed source tasks with meta-features become sources.
    for (tid, task) in [
        ("src-wc", HibenchTask::WordCount),
        ("src-sort", HibenchTask::Sort),
    ] {
        let job = SimJob::new(ClusterSpec::hibench(), hibench_task(task));
        let h = ctl.create_task(
            tid,
            space.clone(),
            TunerOptions {
                budget: 6,
                enable_meta: false,
                ..TunerOptions::default()
            },
        );
        for t in 0..6u64 {
            let cfg = ctl.request_config(&h, &[]).unwrap();
            let r = job.run(&cfg, t);
            let meta = (t == 0).then(|| extract_meta_features(&r.event_log));
            ctl.report_result(&h, cfg, r.runtime_s, r.resource, &[], meta)
                .unwrap();
        }
    }

    // A new similar task reports meta-features → warm-start injection.
    let job = SimJob::new(ClusterSpec::hibench(), hibench_task(HibenchTask::WordCount));
    let h = ctl.create_task(
        "target",
        space,
        TunerOptions {
            budget: 6,
            enable_meta: false,
            ..TunerOptions::default()
        },
    );
    for t in 0..4u64 {
        let cfg = ctl.request_config(&h, &[]).unwrap();
        let r = job.run(&cfg, t);
        let meta = (t == 0).then(|| extract_meta_features(&r.event_log));
        ctl.report_result(&h, cfg, r.runtime_s, r.resource, &[], meta)
            .unwrap();
    }

    let events = sink.events();
    let warm: Vec<&Event> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::WarmStartInjected { .. }))
        .collect();
    assert_eq!(warm.len(), 1, "one injection for the target task");
    assert_eq!(warm[0].task, "target");
    match &warm[0].kind {
        EventKind::WarmStartInjected {
            n_configs,
            n_sources,
        } => {
            assert!(*n_configs >= 1);
            assert_eq!(*n_sources, 2);
        }
        _ => unreachable!(),
    }
    // The transferred configs were actually suggested afterwards.
    let target_sources: Vec<SuggestionKind> = events
        .iter()
        .filter(|e| e.task == "target")
        .filter_map(|e| match &e.kind {
            EventKind::SuggestionMade { source, .. } => Some(*source),
            _ => None,
        })
        .collect();
    assert!(
        target_sources.contains(&SuggestionKind::WarmStart),
        "warm configs were served: {target_sources:?}"
    );
    let hits = telemetry.snapshot().unwrap().counters[metric::WARM_START_HITS];
    assert!(hits >= 1, "warm_start_hits counted: {hits}");
}

#[test]
fn metrics_snapshot_reflects_the_run() {
    let (telemetry, _sink) = Telemetry::ring(4096);
    let telemetry = drive_task(telemetry, 12);
    let snap = telemetry.snapshot().unwrap();

    // Every suggest call was timed.
    assert_eq!(snap.histograms[metric::SUGGEST_LATENCY_S].count, 12);
    assert!(snap.histograms[metric::SUGGEST_LATENCY_S].max > 0.0);
    // GP fits happened (two surrogates per BO iteration).
    assert!(snap.histograms[metric::GP_FIT_S].count >= 2);
    // EIC evaluations were counted per acquisition maximization.
    assert!(snap.histograms[metric::EIC_EVALS_PER_ITER].count >= 1);
    assert!(snap.histograms[metric::EIC_EVALS_PER_ITER].max > 0.0);
    // The sub-space gauge is live.
    assert!(snap.gauges[metric::SUBSPACE_K] >= 1.0);
}

#[test]
fn jsonl_sink_replays_identically_to_the_ring() {
    let path = std::env::temp_dir().join("otune-telemetry-integration.jsonl");
    let telemetry = Telemetry::new(Box::new(JsonlSink::create(&path).unwrap()));
    let telemetry = drive_task(telemetry, 8);
    telemetry.flush();

    let healed = read_healed::<Event>(&path).unwrap();
    assert_eq!(healed.torn_lines, 0);
    let replayed = healed.items;
    assert!(!replayed.is_empty());
    assert_eq!(replayed[0].kind.label(), "TaskRegistered");
    assert_eq!(replayed.last().unwrap().kind.label(), "TaskStopped");
    // Round-trip fidelity: serialize again and compare.
    for e in &replayed {
        let line = serde_json::to_string(e).unwrap();
        let back: Event = serde_json::from_str(&line).unwrap();
        assert_eq!(&back, e);
    }
    std::fs::remove_file(&path).ok();
}
