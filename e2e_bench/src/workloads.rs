//! The four workloads. Each is a closed loop with one client thread: the
//! next wave (or resume) starts when the previous one returns. A run
//! repeats a workload's *unit* — one campaign, one crashed journal and
//! its resume, or one fleet episode — until the time budget is spent, so
//! every unit does the same amount of work whatever the host's speed.

use crate::record::Recorder;
use crate::stats::Fnv;
use otune_bo::Observation;
use otune_core::{
    DataRepository, FleetOptions, FleetReport, FleetRequest, Objective, OnlineTuneController,
    TaskHandle, TunerOptions,
};
use otune_jobs::{CampaignSpec, JobEngine, JobEvent, Journal};
use otune_meta::{extract_meta_features, TaskRecord};
use otune_space::{spark_space, ClusterScale, ConfigSpace, Configuration};
use otune_sparksim::{hibench_task, ClusterSpec, HibenchTask, SimJob};
use otune_telemetry::{attribute, SyncPolicy, Telemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// `campaign`: tasks per campaign (the whole HiBench suite, the engine's
/// cap), waves per campaign, and waves between full checkpoints.
const CAMPAIGN_TASKS: usize = 16;
const CAMPAIGN_BUDGET: usize = 80;
const CAMPAIGN_CHECKPOINT_EVERY: u64 = 4;

/// `resume`: the source campaign is driven `RESUME_WAVES` waves and then
/// dropped without a pause, so the last checkpoint sits two waves back and
/// the resume re-drives them. Each source journal is reopened
/// `RESUME_OPENS` times, each time from a fresh copy.
const RESUME_TASKS: usize = 4;
const RESUME_WAVES: u64 = 66;
const RESUME_CHECKPOINT_EVERY: u64 = 4;
const RESUME_OPENS: u64 = 3;

/// `churn`: many short campaigns with injected faults, each in a fresh
/// journal that is read back and deleted.
const CHURN_TASKS: usize = 16;
const CHURN_BUDGET: usize = 3;
const CHURN_FAULTS: &str = "oom:0.2,straggler:0.05";

/// `fleet`: tasks per episode (the HiBench suite cycled three times; one
/// traced episode then fits the product's 65,536-span buffer), waves per
/// episode, and the meta-learning base tasks every tuner transfers from.
const FLEET_TASKS: usize = 48;
const FLEET_WAVES: usize = 10;
const FLEET_BASES: usize = 8;
const FLEET_BASE_RUNS: usize = 60;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Campaign,
    Resume,
    Churn,
    Fleet,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Campaign,
        Workload::Resume,
        Workload::Churn,
        Workload::Fleet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::Resume => "resume",
            Workload::Churn => "churn",
            Workload::Fleet => "fleet",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The bench span whose durations are the workload's latencies: the
    /// call a waiting user blocks on.
    pub fn latency_span(self) -> &'static str {
        match self {
            Workload::Resume => "open_with",
            _ => "wave",
        }
    }

    /// Units every run completes, however long they take. Quality and
    /// counters come from this fixed prefix, so they depend on the seed
    /// alone and not on how many units fit in the time budget. The
    /// prefix is as long as a run has room for, since quality varies
    /// from seed to seed (a fleet's tasks all share one seed).
    pub fn min_units(self) -> usize {
        match self {
            Workload::Campaign => 3,
            Workload::Resume => 5,
            Workload::Churn => 1000,
            Workload::Fleet => 8,
        }
    }

    /// Run unit `k` (inputs seeded `seed + k`).
    pub fn unit(self, ctx: &mut Ctx, k: u64) -> Result<Unit, String> {
        let from = ctx.rec.mark();
        let mut unit = match self {
            Workload::Campaign => campaign(ctx, k),
            Workload::Resume => resume(ctx, k),
            Workload::Churn => churn(ctx, k),
            Workload::Fleet => fleet(ctx, k),
        }?;
        // A unit whose set-up is a campaign of its own (the resume source)
        // starts its spans after it, so per-layer times cover only the
        // measured calls.
        unit.spans = from.max(unit.spans.start)..ctx.rec.mark();
        // Only the first unit's counters are reported; dropping the rest
        // keeps memory flat however many units a run makes.
        if k > 0 {
            unit.counters.clear();
        }
        unit.peak_rss_mb = peak_rss_mb()?;
        Ok(unit)
    }
}

/// State shared by every unit of a run.
pub struct Ctx {
    pub rec: Recorder,
    pub seed: u64,
    /// Product tracing on (`Telemetry::ring_traced`) or off (`ring`).
    pub traced: bool,
    /// The run's scratch directory, removed at exit.
    pub tmp: PathBuf,
    /// Failed correctness checks.
    pub failures: Vec<String>,
}

impl Ctx {
    /// The product's telemetry handle for one engine or controller:
    /// events go to a one-slot ring, as in `tune-serve` without
    /// `--events`; counters are read back from `snapshot()`.
    fn telemetry(&self, seed: u64) -> Telemetry {
        if self.traced {
            Telemetry::ring_traced(1, seed).0
        } else {
            Telemetry::ring(1).0
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    fn unit_dir(&self, name: &str, k: u64) -> Result<PathBuf, String> {
        let dir = self.tmp.join(format!("{name}-{k}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// What one unit measured.
#[derive(Debug, Default)]
pub struct Unit {
    /// The unit's bench spans in the recorder.
    pub spans: Range<usize>,
    /// Time before the unit's first measured call.
    pub setup_s: f64,
    /// Wall time of the measured calls.
    pub measured_s: f64,
    /// Task evaluations absorbed (observations restored, for `resume`).
    pub evals: u64,
    /// Simulator runs made by the measured calls.
    pub runs: u64,
    /// Per task with a successful run: f(default) / f(best seen).
    pub gains: Vec<f64>,
    /// FNV-1a over every task's suggestion trace (encoded bits).
    pub digest: u64,
    /// Product counters from `Telemetry::snapshot`.
    pub counters: BTreeMap<String, u64>,
    /// Product pool width and parallel maps (the tuners' `pool_threads`
    /// and `pool_parallel_maps` gauges, as last set).
    pub pool_threads: f64,
    pub pool_parallel_maps: f64,
    /// Product trace: exclusive seconds per phase, spans kept and dropped.
    pub phases: BTreeMap<String, f64>,
    pub trace_spans: u64,
    pub trace_dropped: u64,
    /// The process's peak resident set (VmHWM) when the unit ended, MiB.
    pub peak_rss_mb: f64,
}

/// The peak resident set of this process (VmHWM) in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

impl Unit {
    /// Add the product's counters and trace from `tm`, and take its pool
    /// gauges. A unit with several engines reads each one's handle.
    fn read_telemetry(&mut self, tm: &Telemetry) {
        if let Some(snap) = tm.snapshot() {
            let gauge = |name| snap.gauges.get(name).copied().unwrap_or(0.0);
            self.pool_threads = gauge(otune_telemetry::metric::POOL_THREADS);
            self.pool_parallel_maps = gauge(otune_telemetry::metric::POOL_PARALLEL_MAPS);
            for (name, n) in snap.counters {
                *self.counters.entry(name).or_default() += n;
            }
        }
        let spans = tm.traces();
        self.trace_spans += spans.len() as u64;
        self.trace_dropped += tm.traces_dropped();
        for row in attribute(&spans).rows {
            *self.phases.entry(row.name).or_default() += row.exclusive_ns as f64 * 1e-9;
        }
    }
}

fn space() -> ConfigSpace {
    spark_space(ClusterScale::hibench())
}

/// FNV-1a over the encoded bits of every task's configurations.
fn digest(traces: &[Vec<Configuration>]) -> u64 {
    let space = space();
    let mut h = Fnv::default();
    for trace in traces {
        for config in trace {
            h.f64s(&space.encode(config));
        }
    }
    h.0
}

/// f(default) / f(best seen) per task with at least one successful run;
/// the default configuration's f comes from the task's run 0, which the
/// engine also uses to calibrate `T_max`.
fn gains(beta: f64, best: &[f64], job: impl Fn(usize) -> SimJob) -> Vec<f64> {
    let objective = Objective::new(beta);
    let default = space().default_configuration();
    best.iter()
        .enumerate()
        .filter(|(_, b)| b.is_finite())
        .map(|(i, &b)| {
            let r = job(i).run(&default, 0);
            objective.eval(r.runtime_s, r.resource) / b
        })
        .collect()
}

/// Task `i` runs the HiBench suite's `i`-th workload, cycling.
fn hibench(i: usize) -> HibenchTask {
    let suite = HibenchTask::all();
    suite[i % suite.len()]
}

fn hibench_job(i: usize, seed: u64) -> SimJob {
    SimJob::new(ClusterSpec::hibench(), hibench_task(hibench(i))).with_seed(seed)
}

/// What the benchmark saw of a campaign it drove through the engine.
struct Driven {
    evals: u64,
    /// Configurations each task ran, in wave order.
    configs: Vec<Vec<Configuration>>,
    /// Best f each task saw among its successful runs.
    best: Vec<f64>,
}

/// Drive an engine wave by wave, as `tune-serve --auto` does, until the
/// campaign completes or the wave cursor reaches `until`.
fn drive(rec: &mut Recorder, engine: &mut JobEngine, until: u64) -> Result<Driven, String> {
    let spec = engine.spec().clone();
    let objective = Objective::new(spec.beta);
    let n = engine.n_tasks();
    let mut d = Driven {
        evals: 0,
        configs: vec![Vec::new(); n],
        best: vec![f64::INFINITY; n],
    };
    while !engine.is_completed() && engine.wave_cursor() < until {
        let w = engine.wave_cursor();
        let wave = rec.open("wave", w);
        let pending = rec.call("suggest_wave", w, || {
            engine.suggest_wave().map(|p| p.cloned())
        })?;
        let Some(pending) = pending else {
            rec.close(wave);
            break;
        };
        let results = rec.call("execute_pending", w, || engine.execute_pending())?;
        // The engine checkpoints after a report that lands on its cadence
        // and does not end the campaign.
        let cursor = w + 1;
        let every = spec.checkpoint_every;
        let report = if every > 0 && cursor.is_multiple_of(every) && cursor < spec.budget as u64 {
            "report_wave_ckpt"
        } else {
            "report_wave"
        };
        rec.call(report, w, || engine.report_wave(&results))?;
        rec.close(wave);
        for (item, r) in pending.items.iter().zip(&results) {
            d.configs[item.task].push(item.config.clone());
            if !r.is_failure() {
                let f = objective.eval(r.runtime_s, r.resource);
                d.best[item.task] = d.best[item.task].min(f);
            }
        }
        d.evals += results.len() as u64;
    }
    Ok(d)
}

/// Every task's suggestion trace, as the engine reports it.
fn engine_traces(
    rec: &mut Recorder,
    engine: &mut JobEngine,
) -> Result<Vec<Vec<Configuration>>, String> {
    (0..engine.n_tasks())
        .map(|i| rec.call("suggestion_trace", i as u64, || engine.suggestion_trace(i)))
        .collect()
}

fn campaign_spec(kind: &str, k: u64, seed: u64) -> CampaignSpec {
    CampaignSpec {
        job_id: format!("{kind}-{k}"),
        seed,
        ..CampaignSpec::default()
    }
}

fn start(
    rec: &mut Recorder,
    spec: &CampaignSpec,
    path: &Path,
    tm: &Telemetry,
    k: u64,
) -> Result<JobEngine, String> {
    rec.call("start_with", k, || {
        JobEngine::start_with(spec.clone(), path, tm.clone(), SyncPolicy::from_env())
    })
}

/// `campaign`: one full campaign. Set-up is `start_with`; the measured
/// part is every wave.
fn campaign(ctx: &mut Ctx, k: u64) -> Result<Unit, String> {
    let spec = CampaignSpec {
        n_tasks: CAMPAIGN_TASKS,
        budget: CAMPAIGN_BUDGET,
        checkpoint_every: CAMPAIGN_CHECKPOINT_EVERY,
        ..campaign_spec("campaign", k, ctx.seed + k)
    };
    let dir = ctx.unit_dir("campaign", k)?;
    let path = dir.join("journal.jsonl");
    let tm = ctx.telemetry(spec.seed);

    let t0 = Instant::now();
    let mut engine = start(&mut ctx.rec, &spec, &path, &tm, k)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let driven = drive(&mut ctx.rec, &mut engine, u64::MAX)?;
    let measured_s = t1.elapsed().as_secs_f64();

    let budget = spec.budget as u64;
    let summary = engine.summary().cloned();
    ctx.check(
        summary.as_ref().is_some_and(|s| {
            s.waves == budget && s.tasks.iter().all(|t| t.n_observations == spec.budget)
        }),
        || format!("campaign {k}: summary does not show {budget} waves of {budget} observations"),
    );
    let traces = engine_traces(&mut ctx.rec, &mut engine)?;
    ctx.check(traces == driven.configs, || {
        format!("campaign {k}: engine traces differ from the configurations executed")
    });
    drop(engine);

    let mut unit = Unit {
        setup_s,
        measured_s,
        evals: driven.evals,
        runs: driven.evals,
        gains: gains(spec.beta, &driven.best, |i| {
            hibench_job(i, spec.seed + i as u64)
        }),
        digest: digest(&traces),
        ..Unit::default()
    };
    unit.read_telemetry(&tm);
    remove(&dir)?;
    Ok(unit)
}

/// Copy every segment of the journal at `path` into `to`, keeping file
/// names. Copying the base file alone would drop rotated segments and
/// resume from an earlier wave.
fn copy_journal(path: &Path, to: &Path) -> Result<PathBuf, String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    let segments = Journal::segments(path).map_err(|e| format!("segments: {e}"))?;
    for segment in segments {
        let name = segment.file_name().ok_or("segment without a file name")?;
        std::fs::copy(&segment, to.join(name))
            .map_err(|e| format!("copy {}: {e}", segment.display()))?;
    }
    Ok(to.join(path.file_name().ok_or("journal without a file name")?))
}

/// `resume`: set-up builds a source journal by driving a campaign and
/// dropping it mid-flight. The measured part reopens `RESUME_OPENS` fresh
/// copies of it, as a restarted service does; each reopen re-drives the
/// waves after the last checkpoint and appends to its copy.
fn resume(ctx: &mut Ctx, k: u64) -> Result<Unit, String> {
    let spec = CampaignSpec {
        n_tasks: RESUME_TASKS,
        budget: 2 * RESUME_WAVES as usize,
        checkpoint_every: RESUME_CHECKPOINT_EVERY,
        ..campaign_spec("resume", k, ctx.seed + k)
    };
    let dir = ctx.unit_dir("resume", k)?;
    let source = dir.join("journal.jsonl");

    let t0 = Instant::now();
    let tm = ctx.telemetry(spec.seed);
    let mut engine = start(&mut ctx.rec, &spec, &source, &tm, k)?;
    let driven = drive(&mut ctx.rec, &mut engine, RESUME_WAVES)?;
    let expected = engine_traces(&mut ctx.rec, &mut engine)?;
    // Dropped without `pause()`: what a crash leaves behind.
    drop(engine);
    let setup_s = t0.elapsed().as_secs_f64();

    let mut unit = Unit {
        spans: ctx.rec.mark()..ctx.rec.mark(),
        setup_s,
        evals: RESUME_OPENS * RESUME_TASKS as u64 * RESUME_WAVES,
        gains: gains(spec.beta, &driven.best, |i| {
            hibench_job(i, spec.seed + i as u64)
        }),
        digest: digest(&expected),
        ..Unit::default()
    };
    for r in 0..RESUME_OPENS {
        let path = copy_journal(&source, &dir.join(format!("open-{r}")))?;
        ctx.rec.call("journal_load", r, || Journal::load(&path))?;
        let tm = ctx.telemetry(spec.seed);
        let t1 = Instant::now();
        let mut engine = ctx.rec.call("open_with", r, || {
            JobEngine::open_with(&path, tm.clone(), SyncPolicy::from_env())
        })?;
        unit.measured_s += t1.elapsed().as_secs_f64();

        ctx.check(engine.wave_cursor() == RESUME_WAVES, || {
            format!(
                "resume {k}.{r}: reopened at wave {} instead of {RESUME_WAVES}",
                engine.wave_cursor()
            )
        });
        let traces = engine_traces(&mut ctx.rec, &mut engine)?;
        // `==` compares values; the digest also compares their bits.
        ctx.check(traces == expected && digest(&traces) == unit.digest, || {
            format!("resume {k}.{r}: resumed traces differ from the source engine's")
        });
        drop(engine);
        unit.read_telemetry(&tm);
    }
    remove(&dir)?;
    Ok(unit)
}

/// `churn`: one short faulty campaign in a fresh journal. Set-up is
/// `start_with`, as for `campaign`; the measured part is the rest of its
/// life: the waves, reading it back with `Journal::load` (as `otune jobs
/// list` does) and deleting it.
fn churn(ctx: &mut Ctx, k: u64) -> Result<Unit, String> {
    let spec = CampaignSpec {
        n_tasks: CHURN_TASKS,
        budget: CHURN_BUDGET,
        checkpoint_every: 1,
        fault_spec: Some(CHURN_FAULTS.to_string()),
        ..campaign_spec("churn", k, ctx.seed + k)
    };
    let dir = ctx.unit_dir("churn", k)?;
    let path = dir.join("journal.jsonl");
    let tm = ctx.telemetry(spec.seed);

    let t0 = Instant::now();
    let mut engine = start(&mut ctx.rec, &spec, &path, &tm, k)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let driven = drive(&mut ctx.rec, &mut engine, u64::MAX)?;
    let mut measured_s = t1.elapsed().as_secs_f64();

    let summary = engine.summary().cloned();
    let traces = engine_traces(&mut ctx.rec, &mut engine)?;
    ctx.check(traces == driven.configs, || {
        format!("churn {k}: engine traces differ from the configurations executed")
    });
    drop(engine);

    let t2 = Instant::now();
    let load = ctx.rec.call("journal_load", k, || Journal::load(&path))?;
    ctx.rec
        .call("remove_journal", k, || std::fs::remove_dir_all(&dir))?;
    measured_s += t2.elapsed().as_secs_f64();

    let mut unit = Unit {
        setup_s,
        measured_s,
        evals: driven.evals,
        runs: driven.evals,
        gains: gains(spec.beta, &driven.best, |i| {
            hibench_job(i, spec.seed + i as u64)
        }),
        digest: digest(&traces),
        ..Unit::default()
    };
    unit.read_telemetry(&tm);

    let Some(summary) = summary else {
        return Err(format!("churn {k}: campaign did not complete"));
    };
    ctx.check(
        summary.waves == CHURN_BUDGET as u64 || summary.dead_lettered == CHURN_TASKS,
        || format!("churn {k}: completed after {} waves", summary.waves),
    );
    let journaled = load.entries.iter().rev().find_map(|e| match &e.event {
        JobEvent::JobCompleted { summary } => Some(summary),
        _ => None,
    });
    ctx.check(journaled == Some(&summary), || {
        format!("churn {k}: journaled summary differs from the engine's")
    });
    let count = |f: fn(&JobEvent) -> bool| load.entries.iter().filter(|e| f(&e.event)).count();
    let retries = count(|e| matches!(e, JobEvent::RetryScheduled { .. }));
    let dead = count(|e| matches!(e, JobEvent::ItemDeadLettered { .. }));
    let counted = |name: &str| unit.counters.get(name).copied().unwrap_or(0) as usize;
    ctx.check(
        retries == counted(otune_telemetry::metric::JOB_RETRIES)
            && dead == counted(otune_telemetry::metric::JOB_DEAD_LETTERS)
            && dead == summary.dead_lettered,
        || format!("churn {k}: journal, counters and summary disagree on retries or dead letters"),
    );
    Ok(unit)
}

/// Base-task records for meta-learning: sampled runs of the HiBench suite
/// with meta-features from each default run's event log.
fn base_records(space: &ConfigSpace, seed: u64) -> Vec<TaskRecord> {
    let objective = Objective::cost();
    (0..FLEET_BASES)
        .map(|b| {
            let job = hibench_job(b, seed.wrapping_add(10_000 + b as u64));
            let default = job.run(&space.default_configuration(), 0);
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(b as u64));
            let observations = (1..=FLEET_BASE_RUNS as u64)
                .map(|run| {
                    let config = space.sample(&mut rng);
                    let r = job.run(&config, run);
                    Observation {
                        config,
                        objective: objective.eval(r.runtime_s, r.resource),
                        runtime: r.runtime_s,
                        resource: r.resource,
                        context: vec![],
                        failed: false,
                    }
                })
                .collect();
            TaskRecord {
                task_id: format!("base-{b}"),
                meta_features: extract_meta_features(&default.event_log),
                observations,
            }
        })
        .collect()
}

/// `fleet`: one episode of `FLEET_WAVES` waves over `FLEET_TASKS` tasks
/// with meta-learning on, driven through the controller's batched API as
/// `tune-fleet` does. Set-up builds the base records and the tasks.
fn fleet(ctx: &mut Ctx, k: u64) -> Result<Unit, String> {
    let seed = ctx.seed + k;
    let space = space();
    let objective = Objective::cost();

    let t0 = Instant::now();
    let bases = ctx
        .rec
        .time("bases_build", k, || base_records(&space, seed));
    let tm = ctx.telemetry(seed);
    let mut ctl = OnlineTuneController::with_options(
        Arc::new(DataRepository::new()),
        FleetOptions::from_env(),
    );
    ctl.set_telemetry(tm.clone());
    let mut handles: Vec<TaskHandle> = Vec::with_capacity(FLEET_TASKS);
    let mut jobs: Vec<SimJob> = Vec::with_capacity(FLEET_TASKS);
    for i in 0..FLEET_TASKS {
        let job = hibench_job(i, seed + i as u64);
        let options = TunerOptions {
            beta: objective.beta,
            budget: FLEET_WAVES,
            enable_meta: true,
            base_tasks: bases.clone(),
            seed,
            ..TunerOptions::default()
        };
        let task_id = format!("{}-{i}", hibench(i).name());
        let handle = ctx.rec.time("create_task", i as u64, || {
            ctl.create_task(&task_id, space.clone(), options)
        });
        handles.push(handle);
        jobs.push(job);
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let mut configs: Vec<Vec<Configuration>> = vec![Vec::new(); FLEET_TASKS];
    let mut best = vec![f64::INFINITY; FLEET_TASKS];
    let t1 = Instant::now();
    for wave in 0..FLEET_WAVES as u64 {
        let span = ctx.rec.open("wave", wave);
        let requests: Vec<FleetRequest> = handles
            .iter()
            .map(|handle| FleetRequest {
                handle,
                context: &[],
            })
            .collect();
        let suggested = ctx.rec.call("request_configs", wave, || {
            ctl.request_configs(&requests)
                .into_iter()
                .collect::<Result<Vec<_>, _>>()
        })?;
        let mut reports = Vec::with_capacity(FLEET_TASKS);
        for (i, config) in suggested.into_iter().enumerate() {
            let r = ctx.rec.time("sim_run", wave, || jobs[i].run(&config, wave));
            // Meta-features ride on each task's first report, as in
            // `tune-fleet`.
            let meta_features = (wave == 0).then(|| {
                ctx.rec.time("extract_meta_features", wave, || {
                    extract_meta_features(&r.event_log)
                })
            });
            configs[i].push(config.clone());
            best[i] = best[i].min(objective.eval(r.runtime_s, r.resource));
            reports.push(FleetReport {
                handle: &handles[i],
                config,
                runtime_s: r.runtime_s,
                resource: r.resource,
                context: &[],
                meta_features,
            });
        }
        ctx.rec.call("report_results", wave, || {
            ctl.report_results(&reports)
                .into_iter()
                .collect::<Result<Vec<_>, _>>()
        })?;
        ctx.rec.close(span);
    }
    let measured_s = t1.elapsed().as_secs_f64();

    let mut histories = Vec::with_capacity(FLEET_TASKS);
    for (i, handle) in handles.iter().enumerate() {
        let history = ctx.rec.call("tuner", i as u64, || {
            ctl.tuner(handle).map(|t| {
                t.history()
                    .iter()
                    .map(|o| o.config.clone())
                    .collect::<Vec<_>>()
            })
        })?;
        histories.push(history);
    }
    ctx.check(histories == configs, || {
        format!("fleet {k}: tuner histories differ from the configurations executed")
    });

    let mut unit = Unit {
        setup_s,
        measured_s,
        evals: (FLEET_TASKS * FLEET_WAVES) as u64,
        runs: (FLEET_TASKS * FLEET_WAVES) as u64,
        gains: gains(objective.beta, &best, |i| hibench_job(i, seed + i as u64)),
        digest: digest(&configs),
        ..Unit::default()
    };
    unit.read_telemetry(&tm);
    Ok(unit)
}

fn remove(dir: &Path) -> Result<(), String> {
    std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))
}
