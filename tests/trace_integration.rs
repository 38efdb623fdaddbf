//! Hierarchical tracing against the full service: driving fleet waves
//! through the controller must produce one coherent span tree per wave —
//! wave → shard → task → suggest → surrogate/acquisition kernels — whose
//! *structure* is a pure function of the workload: identical across pool
//! widths, reconstructible from the JSONL event stream, and absent
//! entirely on untraced handles.

use otune_core::fleet::{FleetOptions, FleetReport, FleetRequest};
use otune_core::prelude::*;
use otune_core::telemetry::{
    read_healed, spans_from_events, structural_key, Event, JsonlSink, SpanRecord,
};
use otune_core::TaskHandle;
use otune_pool::Pool;
use std::collections::BTreeMap;
use std::sync::Arc;

const N_TASKS: usize = 4;
const BUDGET: usize = 10;

fn toy_space() -> ConfigSpace {
    use otune_space::Parameter;
    ConfigSpace::new(vec![
        Parameter::int("n", 1, 50, 10),
        Parameter::int("m", 1, 32, 8),
    ])
}

fn toy_eval(task: usize, c: &Configuration) -> (f64, f64) {
    let n = c[0].as_int().unwrap() as f64;
    let m = c[1].as_int().unwrap() as f64;
    let w = 1.0 + task as f64 * 0.25;
    (w * 400.0 / n + 30.0 / m + 10.0, n * (1.0 + 0.5 * m))
}

/// Drive `N_TASKS` toy tasks through `BUDGET` batched waves on a
/// controller with the given sharding/pool layout.
fn drive_fleet(telemetry: Telemetry, shards: usize, threads: usize) -> Telemetry {
    let mut ctl = OnlineTuneController::with_options(
        Arc::new(DataRepository::new()),
        FleetOptions {
            shards,
            pool: Pool::new(threads),
        },
    );
    ctl.set_telemetry(telemetry.clone());
    let handles: Vec<TaskHandle> = (0..N_TASKS)
        .map(|i| {
            ctl.create_task(
                &format!("trace-task-{i}"),
                toy_space(),
                TunerOptions {
                    budget: BUDGET,
                    enable_meta: false,
                    seed: 2000 + i as u64,
                    ..TunerOptions::default()
                },
            )
        })
        .collect();
    for _ in 0..BUDGET {
        let requests: Vec<FleetRequest> = handles
            .iter()
            .map(|h| FleetRequest {
                handle: h,
                context: &[],
            })
            .collect();
        let configs = ctl.request_configs(&requests);
        let reports: Vec<FleetReport> = configs
            .into_iter()
            .enumerate()
            .map(|(t, cfg)| {
                let cfg = cfg.unwrap();
                let (rt, r) = toy_eval(t, &cfg);
                FleetReport {
                    handle: &handles[t],
                    config: cfg,
                    runtime_s: rt,
                    resource: r,
                    context: &[],
                    meta_features: None,
                }
            })
            .collect();
        for res in ctl.report_results(&reports) {
            res.unwrap();
        }
    }
    telemetry
}

/// Walk a span's ancestor chain and return the names root-to-leaf.
fn ancestry<'a>(by_id: &BTreeMap<u64, &'a SpanRecord>, span: &'a SpanRecord) -> Vec<&'a str> {
    let mut names = vec![span.name.as_str()];
    let mut cur = span;
    while cur.parent_id != 0 {
        match by_id.get(&cur.parent_id) {
            Some(parent) => {
                names.push(parent.name.as_str());
                cur = parent;
            }
            None => break,
        }
    }
    names.reverse();
    names
}

fn name_counts(spans: &[SpanRecord]) -> BTreeMap<&str, usize> {
    let mut counts = BTreeMap::new();
    for s in spans {
        *counts.entry(s.name.as_str()).or_insert(0) += 1;
    }
    counts
}

#[test]
fn fleet_wave_spans_nest_through_the_full_stack() {
    let (telemetry, _sink) = Telemetry::ring_traced(1, 11);
    let telemetry = drive_fleet(telemetry, 2, 2);
    let spans = telemetry.traces();
    assert!(!spans.is_empty());
    assert_eq!(telemetry.traces_dropped(), 0, "buffer held the whole run");

    let by_id: BTreeMap<u64, &SpanRecord> = spans.iter().map(|s| (s.span_id, s)).collect();
    let counts = name_counts(&spans);

    // One wave root per controller call: BUDGET suggest waves and
    // BUDGET report waves, each a distinct trace.
    assert_eq!(counts["fleet_wave_suggest"], BUDGET);
    assert_eq!(counts["fleet_wave_report"], BUDGET);
    // Every task stepped in every suggest wave, inside a shard group.
    assert_eq!(counts["suggest"], N_TASKS * BUDGET);
    assert_eq!(counts["task"], 2 * N_TASKS * BUDGET);
    assert!(counts["shard"] >= 2 * BUDGET, "both wave kinds sharded");

    // The documented hierarchy holds at every level.
    for s in &spans {
        match s.name.as_str() {
            "fleet_wave_suggest" | "fleet_wave_report" => {
                assert_eq!(s.parent_id, 0, "wave spans are trace roots")
            }
            "shard" => {
                let parent = by_id[&s.parent_id];
                assert!(parent.name.starts_with("fleet_wave"), "{}", parent.name);
            }
            "task" => assert_eq!(by_id[&s.parent_id].name, "shard"),
            "suggest" | "observe" => assert_eq!(by_id[&s.parent_id].name, "task"),
            _ => {}
        }
    }

    // The deep stack is attributed: BO iterations reach the surrogate
    // store and the acquisition maximizer, and GP fits reach the
    // Cholesky kernel in `otune-linalg` — a leaf span four-plus levels
    // below the wave root.
    for leaf in ["gp_full_fit", "eic_maximize", "chol_factor"] {
        let one = spans
            .iter()
            .find(|s| s.name == leaf)
            .unwrap_or_else(|| panic!("{leaf} span missing"));
        let chain = ancestry(&by_id, one);
        assert_eq!(chain[0], "fleet_wave_suggest", "{chain:?}");
        assert!(chain.contains(&"suggest"), "{chain:?}");
    }

    // Task labels follow the `for_task` relabeling into the trace.
    assert!(spans
        .iter()
        .filter(|s| s.name == "suggest")
        .all(|s| s.task.starts_with("trace-task-")));
}

#[test]
fn trace_structure_is_invariant_across_pool_widths() {
    let (seq, _s1) = Telemetry::ring_traced(1, 11);
    let (par, _s2) = Telemetry::ring_traced(1, 11);
    let seq = drive_fleet(seq, 4, 1);
    let par = drive_fleet(par, 4, 4);
    let a = seq.traces();
    let b = par.traces();
    assert_eq!(a.len(), b.len());
    assert_eq!(
        structural_key(&a),
        structural_key(&b),
        "span ids, names, and parenting must not depend on OTUNE_THREADS"
    );
}

#[test]
fn shard_count_moves_placement_but_not_per_task_work() {
    let (one, _s1) = Telemetry::ring_traced(1, 11);
    let (four, _s2) = Telemetry::ring_traced(1, 11);
    let one = drive_fleet(one, 1, 1).traces();
    let four = drive_fleet(four, 4, 1).traces();
    let mut a = name_counts(&one);
    let mut b = name_counts(&four);
    // Shard spans are placement: their count tracks the layout.
    assert!(a.remove("shard") < b.remove("shard"));
    // Everything else — wave roots, per-task steps, kernel work — is
    // identical, because sharding decides where a step runs, not what
    // it computes.
    assert_eq!(a, b);
}

#[test]
fn untraced_and_disabled_handles_record_no_spans_under_fleet_load() {
    let (untraced, sink) = Telemetry::ring(1 << 16);
    let untraced = drive_fleet(untraced, 2, 2);
    assert!(!untraced.is_tracing());
    assert!(untraced.traces().is_empty());
    // Metrics and events still flow; tracing is strictly opt-in.
    assert!(untraced.snapshot().unwrap().counters["fleet_waves"] >= 2);
    assert!(!sink.events().is_empty());

    let disabled = drive_fleet(Telemetry::disabled(), 2, 2);
    assert!(disabled.traces().is_empty());
    assert!(disabled.snapshot().is_none());
}

#[test]
fn jsonl_stream_reconstructs_the_in_memory_trace() {
    let path = std::env::temp_dir().join("otune-trace-integration.jsonl");
    let telemetry = Telemetry::new_traced(Box::new(JsonlSink::create(&path).unwrap()), 11);
    let telemetry = drive_fleet(telemetry, 2, 2);
    telemetry.flush();

    let healed = read_healed::<Event>(&path).unwrap();
    assert_eq!(healed.torn_lines, 0);
    let rebuilt = spans_from_events(&healed.items);
    let in_memory = telemetry.traces();
    assert_eq!(rebuilt.len(), in_memory.len());
    assert_eq!(
        structural_key(&rebuilt),
        structural_key(&in_memory),
        "the JSONL stream carries the full trace"
    );
    std::fs::remove_file(&path).ok();
}
