//! Fleet determinism: a task's suggestion trace is bitwise identical
//! whether it is driven sequentially or through batched waves — at any
//! shard count (`OTUNE_SHARDS`), any pool width (`OTUNE_THREADS`), and
//! under any interleaving of tasks across waves. Sharding decides *where*
//! a task's step runs, never *what* it computes.

use otune_core::fleet::{FleetOptions, FleetReport, FleetRequest};
use otune_core::prelude::*;
use otune_core::TaskHandle;
use otune_meta::SharedMetaStore;
use otune_pool::Pool;
use std::sync::Arc;

const N_TASKS: usize = 32;
const BUDGET: usize = 6;

fn toy_space() -> ConfigSpace {
    use otune_space::Parameter;
    ConfigSpace::new(vec![
        Parameter::int("n", 1, 50, 10),
        Parameter::int("m", 1, 32, 8),
    ])
}

/// Deterministic per-task workload: tasks differ so traces differ.
fn toy_eval(task: usize, c: &Configuration) -> (f64, f64) {
    let n = c[0].as_int().unwrap() as f64;
    let m = c[1].as_int().unwrap() as f64;
    let w = 1.0 + task as f64 * 0.25;
    (w * 400.0 / n + 30.0 / m + 10.0, n * (1.0 + 0.5 * m))
}

fn toy_options(task: usize) -> TunerOptions {
    TunerOptions {
        budget: BUDGET,
        enable_meta: false,
        seed: 1000 + task as u64,
        ..TunerOptions::default()
    }
}

/// A task's trace as raw bits of the encoded configurations.
type Trace = Vec<Vec<u64>>;

fn bits(space: &ConfigSpace, cfg: &Configuration) -> Vec<u64> {
    space.encode(cfg).iter().map(|v| v.to_bits()).collect()
}

/// FNV-1a over the task id — mirrors the controller's shard hash, which is
/// documented stable across processes and platforms.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Per-task tuner options of one fleet input.
type OptionsFn<'a> = &'a dyn Fn(usize) -> TunerOptions;

/// Meta-learning input: every task runs the meta ensemble over the same
/// base tasks, so each controller's shared store memoizes base fits and
/// their predictions across the fleet.
fn meta_options(bases: &[TaskRecord]) -> impl Fn(usize) -> TunerOptions + '_ {
    move |task| TunerOptions {
        enable_meta: true,
        base_tasks: bases.to_vec(),
        ..toy_options(task)
    }
}

fn register_fleet(ctl: &mut OnlineTuneController, options: OptionsFn) -> Vec<TaskHandle> {
    (0..N_TASKS)
        .map(|i| ctl.create_task(&format!("fleet-task-{i}"), toy_space(), options(i)))
        .collect()
}

/// Golden reference: every task driven through the sequential single-task
/// API, one full step at a time.
fn sequential_traces(options: OptionsFn) -> Vec<Trace> {
    let space = toy_space();
    let mut ctl = OnlineTuneController::with_options(
        Arc::new(DataRepository::new()),
        FleetOptions {
            shards: 1,
            pool: Pool::new(1),
        },
    );
    let handles = register_fleet(&mut ctl, options);
    let mut traces: Vec<Trace> = vec![Vec::new(); N_TASKS];
    for _ in 0..BUDGET {
        for (t, h) in handles.iter().enumerate() {
            let cfg = ctl.request_config(h, &[]).unwrap();
            traces[t].push(bits(&space, &cfg));
            let (rt, r) = toy_eval(t, &cfg);
            ctl.report_result(h, cfg, rt, r, &[], None).unwrap();
        }
    }
    traces
}

/// Drive the fleet through batched waves, one wave per budget step, with
/// `order` choosing each wave's task interleaving.
fn wave_traces(
    mut ctl: OnlineTuneController,
    order: impl Fn(u64, &[TaskHandle]) -> Vec<usize>,
    options: OptionsFn,
) -> Vec<Trace> {
    let space = toy_space();
    let handles = register_fleet(&mut ctl, options);
    let mut traces: Vec<Trace> = vec![Vec::new(); N_TASKS];
    for wave in 0..BUDGET as u64 {
        let idxs = order(wave, &handles);
        assert_eq!(idxs.len(), N_TASKS, "order must be a permutation");
        let requests: Vec<FleetRequest> = idxs
            .iter()
            .map(|&t| FleetRequest {
                handle: &handles[t],
                context: &[],
            })
            .collect();
        let configs = ctl.request_configs(&requests);
        let reports: Vec<FleetReport> = configs
            .into_iter()
            .zip(&idxs)
            .map(|(cfg, &t)| {
                let cfg = cfg.unwrap();
                traces[t].push(bits(&space, &cfg));
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
    traces
}

fn sharded_controller(shards: usize, threads: usize) -> OnlineTuneController {
    OnlineTuneController::with_options(
        Arc::new(DataRepository::new()),
        FleetOptions {
            shards,
            pool: Pool::new(threads),
        },
    )
}

fn round_robin(_wave: u64, handles: &[TaskHandle]) -> Vec<usize> {
    (0..handles.len()).collect()
}

/// All of one shard's tasks, then the next shard's (4-way grouping).
fn shard_major(_wave: u64, handles: &[TaskHandle]) -> Vec<usize> {
    let mut idxs: Vec<usize> = (0..handles.len()).collect();
    idxs.sort_by_key(|&t| (fnv1a(handles[t].as_str()) % 4, t));
    idxs
}

/// A deterministic per-wave shuffle (LCG-driven Fisher-Yates).
fn seeded_shuffle(wave: u64, handles: &[TaskHandle]) -> Vec<usize> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ (wave + 1);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut idxs: Vec<usize> = (0..handles.len()).collect();
    for i in (1..idxs.len()).rev() {
        idxs.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    idxs
}

#[test]
fn wave_traces_match_sequential_bitwise_across_shards_and_interleavings() {
    let bases: Vec<TaskRecord> = (0..3)
        .map(|t| base_record(&format!("base-{t}"), t, 7 + t as u64))
        .collect();
    let meta = meta_options(&bases);
    let inputs: [(&str, OptionsFn); 2] = [("plain", &toy_options), ("meta", &meta)];
    type OrderFn = fn(u64, &[TaskHandle]) -> Vec<usize>;
    let orders: [(&str, OrderFn); 3] = [
        ("round-robin", round_robin),
        ("shard-major", shard_major),
        ("seeded-shuffle", seeded_shuffle),
    ];
    for (input, options) in inputs {
        let golden = sequential_traces(options);
        for shards in [1usize, 4] {
            for (name, order) in orders {
                let traces = wave_traces(sharded_controller(shards, 4), order, options);
                assert_eq!(
                    traces, golden,
                    "{input}: interleaving {name} with {shards} shard(s) changed a task trace"
                );
            }
        }
        // And under whatever OTUNE_SHARDS / OTUNE_THREADS the environment
        // (CI matrix) selects.
        let traces = wave_traces(OnlineTuneController::new(), round_robin, options);
        assert_eq!(
            traces, golden,
            "{input}: env-configured fleet changed a task trace"
        );
    }
}

/// Record a short toy-task history to serve as a meta-learning base task.
fn base_record(name: &str, task: usize, seed: u64) -> TaskRecord {
    let mut tuner = OnlineTuner::new(
        toy_space(),
        TunerOptions {
            budget: 8,
            enable_meta: false,
            seed,
            ..TunerOptions::default()
        },
    );
    for _ in 0..8 {
        let cfg = tuner.suggest(&[]).unwrap();
        let (rt, r) = toy_eval(task, &cfg);
        tuner.observe(cfg, rt, r, &[]).unwrap();
    }
    tuner.export_record(name, vec![1.0 + task as f64, 2.0, 3.0])
}

#[test]
fn shared_meta_store_is_bitwise_transparent() {
    // Tuners running the meta ensemble produce identical traces whether
    // base surrogates come from private caches or from a fleet-wide
    // shared store — the store only memoizes pure fits.
    let bases: Vec<TaskRecord> = (0..3)
        .map(|t| base_record(&format!("base-{t}"), t, 7 + t as u64))
        .collect();
    let opts = TunerOptions {
        budget: BUDGET,
        enable_meta: true,
        base_tasks: bases,
        seed: 42,
        ..TunerOptions::default()
    };
    let space = toy_space();
    let run = |shared: Option<Arc<SharedMetaStore>>| -> Trace {
        let mut tuner = OnlineTuner::new(toy_space(), opts.clone());
        if let Some(store) = shared {
            tuner.set_shared_meta(store);
        }
        let mut trace = Trace::new();
        for _ in 0..BUDGET {
            let cfg = tuner.suggest(&[]).unwrap();
            trace.push(bits(&space, &cfg));
            let (rt, r) = toy_eval(9, &cfg);
            tuner.observe(cfg, rt, r, &[]).unwrap();
        }
        trace
    };
    let private = run(None);
    let store = Arc::new(SharedMetaStore::new());
    let first = run(Some(Arc::clone(&store)));
    assert!(store.n_bases() > 0, "shared store captured the base fits");
    assert!(
        store.n_predictions() > 0,
        "shared store captured the base predictions"
    );
    let warm = run(Some(Arc::clone(&store)));
    assert_eq!(first, private, "shared store changed a suggestion");
    assert_eq!(warm, private, "warm shared store changed a suggestion");
}
