//! Command implementations for the `otune` binary.

use crate::args::{Command, CorpusAction, JobsAction};
use otune_baselines::{CherryPick, Dac, Locat, RandomSearch, Rfhoc, Tuneful, Tuner};
use otune_bo::{within_constraints, Observation};
use otune_core::fleet::{FleetOptions, FleetReport, FleetRequest};
use otune_core::telemetry::{
    attribute, chrome_trace_json, prometheus_text, read_healed, spans_from_events,
    AttributionReport, Event, EventKind, JsonlSink, MetricsSnapshot, SyncPolicy, Telemetry,
};
use otune_core::{Objective, OnlineTuneController, OnlineTuner, TaskHandle, TunerOptions};
use otune_forest::Fanova;
use otune_jobs::{CampaignSpec, FleetSummary, ItemResult, JobEngine, JobError, JobEvent, Journal};
use otune_meta::{
    extract_meta_features, CorpusRecord, TuningCorpus, DEFAULT_MAX_DISTANCE, DEFAULT_RETRIEVAL_K,
};
use otune_pool::Pool;
use otune_space::{spark_param_names, spark_space, ClusterScale, SparkParam};
use otune_sparksim::{hibench_task, ClusterSpec, FaultProfile, HibenchTask, SimJob};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;

/// Execute a parsed command, writing human output to `out`.
/// Returns a process exit code.
pub fn run(cmd: Command, out: &mut dyn Write) -> std::io::Result<i32> {
    match cmd {
        Command::Help => {
            writeln!(out, "{}", crate::args::USAGE)?;
            Ok(0)
        }
        Command::Workloads => {
            writeln!(out, "available workloads:")?;
            for t in HibenchTask::all() {
                let w = hibench_task(t);
                writeln!(
                    out,
                    "  {:<10} {:>6.0} GB, {} stage(s), {} iteration(s){}",
                    t.name(),
                    w.input_gb,
                    w.stages.len(),
                    w.iterations,
                    if w.uses_sql { ", SQL" } else { "" }
                )?;
            }
            Ok(0)
        }
        Command::Tune {
            task,
            beta,
            budget,
            seed,
            no_safety,
            no_subspace,
            no_agd,
            out: path,
            events,
            fault_profile,
            trace,
            corpus,
        } => {
            let Some(task) = find_task(&task) else {
                writeln!(out, "unknown task {task:?}; run `otune workloads`")?;
                return Ok(2);
            };
            let faults = match fault_profile.as_deref().map(FaultProfile::parse) {
                None => None,
                Some(Ok(p)) => Some(p),
                Some(Err(e)) => {
                    writeln!(out, "bad --fault-profile: {e}")?;
                    return Ok(2);
                }
            };
            tune(
                task,
                beta,
                budget,
                seed,
                no_safety,
                no_subspace,
                no_agd,
                path,
                events,
                faults,
                trace,
                corpus,
                out,
            )?;
            Ok(0)
        }
        Command::TuneFleet {
            tasks,
            budget,
            shards,
            threads,
            seed,
            events,
            trace,
            prom,
            corpus,
        } => tune_fleet(
            tasks, budget, shards, threads, seed, events, trace, prom, corpus, out,
        ),
        Command::TuneServe {
            journal,
            tasks,
            budget,
            seed,
            beta,
            max_retries,
            checkpoint_every,
            fault_profile,
            events,
            auto,
            sync,
        } => {
            let spec = CampaignSpec {
                job_id: "tune-serve".to_string(),
                n_tasks: tasks,
                budget,
                seed,
                beta,
                max_retries,
                checkpoint_every,
                fault_spec: fault_profile,
                ..CampaignSpec::default()
            };
            // --sync wins over OTUNE_JOURNAL_SYNC; both default to `every`.
            let policy = sync
                .as_deref()
                .and_then(SyncPolicy::parse)
                .unwrap_or_else(SyncPolicy::from_env);
            tune_serve(
                spec,
                &journal,
                events,
                auto,
                policy,
                &mut std::io::stdin().lock(),
                out,
            )
        }
        Command::Corpus { action, file } => corpus_cmd(action, &file, out),
        Command::Jobs {
            action,
            journal_dir,
        } => jobs_cmd(action, &journal_dir, out),
        Command::Events { file, task, kind } => {
            events_cmd(&file, task.as_deref(), kind.as_deref(), out)
        }
        Command::Stats { file, json, prom } => stats_cmd(&file, json, prom, out),
        Command::Trace { file, out: path } => trace_cmd(&file, path.as_deref(), out),
        Command::Top { file, watch } => top_cmd(&file, watch, out),
        Command::Compare {
            task,
            budget,
            seeds,
        } => {
            let Some(task) = find_task(&task) else {
                writeln!(out, "unknown task {task:?}; run `otune workloads`")?;
                return Ok(2);
            };
            compare(task, budget, seeds, out)?;
            Ok(0)
        }
        Command::Importance { task, samples } => {
            let Some(task) = find_task(&task) else {
                writeln!(out, "unknown task {task:?}; run `otune workloads`")?;
                return Ok(2);
            };
            importance(task, samples, out)?;
            Ok(0)
        }
    }
}

fn find_task(name: &str) -> Option<HibenchTask> {
    HibenchTask::all().into_iter().find(|t| t.name() == name)
}

#[allow(clippy::too_many_arguments)]
fn tune(
    task: HibenchTask,
    beta: f64,
    budget: usize,
    seed: u64,
    no_safety: bool,
    no_subspace: bool,
    no_agd: bool,
    path: Option<String>,
    events: Option<String>,
    faults: Option<FaultProfile>,
    trace: Option<String>,
    corpus: Option<String>,
    out: &mut dyn Write,
) -> std::io::Result<()> {
    // `--trace` turns on hierarchical tracing seeded by the run seed, so
    // span identities are reproducible run-to-run. Spans still land in the
    // JSONL stream (as SpanClosed events) when `--events` is also given.
    let telemetry = match (&events, &trace) {
        (Some(p), Some(_)) => Telemetry::new_traced(Box::new(JsonlSink::create(p)?), seed),
        (Some(p), None) => Telemetry::new(Box::new(JsonlSink::create(p)?)),
        (None, Some(_)) => Telemetry::ring_traced(1, seed).0,
        (None, None) => Telemetry::disabled(),
    }
    .for_task(task.name());
    let space = spark_space(ClusterScale::hibench());
    telemetry.emit(
        0,
        EventKind::TaskRegistered {
            n_params: space.len(),
        },
    );
    let job = SimJob::new(ClusterSpec::hibench(), hibench_task(task)).with_seed(seed);
    let default_cfg = space.default_configuration();
    // The baseline run is measured fault-free (it calibrates T_max); the
    // tuning runs then execute with the fault schedule attached.
    let baseline = job.run(&default_cfg, 0);
    let t_max = 2.0 * baseline.runtime_s;
    writeln!(
        out,
        "tuning {} (β = {beta}, budget {budget}, T_max = 2x default = {t_max:.0}s)",
        task.name(),
    )?;
    // The calibration run's event log is a pre-existing manual execution:
    // its meta-features query the corpus for a zero-execution bootstrap
    // before any tuned run happens.
    let mut corpus_store = match &corpus {
        Some(p) => {
            let mut c = TuningCorpus::open(p.as_str())?;
            // Honor OTUNE_JOURNAL_SYNC on the corpus hot path too; the
            // default stays one fsync per record.
            c.set_sync_policy(SyncPolicy::from_env())?;
            c.set_telemetry(telemetry.clone());
            Some(c)
        }
        None => None,
    };
    let query = extract_meta_features(&baseline.event_log);
    let retrieval_configs = match &corpus_store {
        Some(c) => c.index_for(query.len()).bootstrap_with(
            &space,
            &query,
            DEFAULT_RETRIEVAL_K,
            DEFAULT_MAX_DISTANCE,
            &telemetry,
        ),
        None => Vec::new(),
    };
    if let Some(c) = &corpus_store {
        writeln!(
            out,
            "corpus: {} record(s) over {} task(s); retrieval bootstrap: {} config(s)",
            c.len(),
            c.n_tasks(),
            retrieval_configs.len(),
        )?;
    }
    let job = match faults {
        Some(mut p) => {
            // An unset kill budget defaults to the tuner's T_max: runs the
            // platform would abort are reported as TimeoutKilled.
            p.t_max_s = p.t_max_s.or(Some(t_max));
            writeln!(
                out,
                "fault injection: oom {:.0}%, straggler {:.0}%, lost {:.0}%, kill over {:.0}s",
                100.0 * p.oom_rate,
                100.0 * p.straggler_rate,
                100.0 * p.lost_rate,
                p.t_max_s.unwrap_or(f64::INFINITY),
            )?;
            job.with_faults(p)
        }
        None => job,
    };

    let mut tuner = OnlineTuner::new(
        space,
        TunerOptions {
            beta,
            t_max: Some(2.0 * baseline.runtime_s),
            budget,
            enable_safety: !no_safety,
            enable_subspace: !no_subspace,
            n_agd: if no_agd { 0 } else { 5 },
            enable_meta: false,
            seed,
            retrieval_configs,
            ..TunerOptions::default()
        },
    );
    tuner.set_telemetry(telemetry.clone());
    let record_outcome =
        |c: &mut TuningCorpus, cfg: &otune_space::Configuration, rt: f64, res: f64, ok: bool| {
            c.append(CorpusRecord {
                task_id: task.name().to_string(),
                meta_features: query.clone(),
                config: cfg.clone(),
                objective: Objective::new(beta).eval(rt, res),
                runtime: rt,
                resource: res,
                failed: !ok || !within_constraints(rt, res, Some(t_max), None),
            })
        };
    if let Some(c) = corpus_store.as_mut() {
        // The manual-default calibration run is itself a corpus record.
        record_outcome(c, &default_cfg, baseline.runtime_s, baseline.resource, true)?;
    }
    tuner.seed_observation(default_cfg, baseline.runtime_s, baseline.resource, &[]);

    for t in 1..=budget as u64 {
        let cfg = tuner.suggest(&[]).expect("alternating protocol");
        let r = job.run(&cfg, t);
        if let Some(c) = corpus_store.as_mut() {
            record_outcome(c, &cfg, r.runtime_s, r.resource, !r.status.is_failure())?;
        }
        let status = if matches!(r.status, otune_sparksim::ExecutionStatus::Success) {
            String::new()
        } else {
            format!("  [{}]", r.status.label())
        };
        writeln!(
            out,
            "  iter {t:>2}: runtime {:>9.1}s  resource {:>7.1}  objective {:>10.1}{status}",
            r.runtime_s,
            r.resource,
            Objective::new(beta).eval(r.runtime_s, r.resource)
        )?;
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

    let best = tuner.best().expect("observed at least the baseline");
    writeln!(
        out,
        "\nbest: objective {:.1} (runtime {:.1}s, resource {:.1})",
        best.objective, best.runtime, best.resource
    )?;
    writeln!(
        out,
        "best executors: {} x {}c x {}g, parallelism {}",
        best.config[SparkParam::ExecutorInstances.index()],
        best.config[SparkParam::ExecutorCores.index()],
        best.config[SparkParam::ExecutorMemory.index()],
        best.config[SparkParam::DefaultParallelism.index()],
    )?;
    if let Some(c) = corpus_store.as_mut() {
        // Durability barrier at end of run: a lazy sync policy must not
        // leave staged records in memory past the campaign.
        c.flush()?;
        writeln!(out, "corpus now holds {} record(s)", c.len())?;
    }
    if let Some(path) = path {
        let json = serde_json::to_string_pretty(tuner.history()).expect("runhistory serializes");
        std::fs::write(&path, json)?;
        writeln!(out, "runhistory written to {path}")?;
    }
    if let Some(events_path) = events {
        // One post-budget suggest records the TaskStopped event.
        let _ = tuner.suggest(&[]);
        telemetry.flush();
        if let Some(snapshot) = telemetry.snapshot() {
            let metrics_path = format!("{events_path}.metrics.json");
            let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
            std::fs::write(&metrics_path, json)?;
            writeln!(
                out,
                "events written to {events_path}, metrics to {metrics_path}"
            )?;
        }
    }
    if let Some(trace_path) = trace {
        let spans = telemetry.traces();
        std::fs::write(&trace_path, chrome_trace_json(&spans))?;
        writeln!(
            out,
            "\ntrace written to {trace_path} ({} span(s); load at ui.perfetto.dev)",
            spans.len()
        )?;
        write_attribution(&attribute(&spans), out)?;
    }
    Ok(())
}

/// `otune tune-fleet`: drive a simulated fleet of periodic HiBench tasks
/// through the controller's batched wave API and report throughput.
/// Every task reports its event-log meta-features with its first result.
/// The run exercises per-task waves and, with `--corpus`, corpus appends
/// and retrieval through the shared meta store. It fits no base-task
/// surrogate and fires no similarity refit or warm-start injection: its
/// tasks have no base tasks, and the meta-features arrive only with
/// wave 0's reports, before any task has the observations a
/// meta-learning source needs; injection is tried only on that first
/// arrival.
#[allow(clippy::too_many_arguments)]
fn tune_fleet(
    tasks: usize,
    budget: usize,
    shards: Option<usize>,
    threads: Option<usize>,
    seed: u64,
    events: Option<String>,
    trace: Option<String>,
    prom: Option<String>,
    corpus: Option<String>,
    out: &mut dyn Write,
) -> std::io::Result<i32> {
    let mut fleet = FleetOptions::from_env();
    if let Some(s) = shards {
        fleet.shards = s.max(1);
    }
    if let Some(t) = threads {
        fleet.pool = Pool::new(t.max(1));
    }
    let telemetry = match (&events, &trace) {
        (Some(p), Some(_)) => Telemetry::new_traced(Box::new(JsonlSink::create(p)?), seed),
        (Some(p), None) => Telemetry::new(Box::new(JsonlSink::create(p)?)),
        (None, Some(_)) => Telemetry::ring_traced(1, seed).0,
        // No sink requested: keep metrics (for the summary) but drop events.
        (None, None) => Telemetry::ring(1).0,
    };
    writeln!(
        out,
        "fleet tuning: {tasks} task(s), budget {budget}, {} shard(s), {} thread(s)",
        fleet.shards,
        fleet.pool.threads(),
    )?;

    let space = spark_space(ClusterScale::hibench());
    let workloads = HibenchTask::all();
    // Every task's tuner runs its maps on the wave pool, so `--threads`
    // bounds them all.
    let pool = fleet.pool.clone();
    let mut ctl = OnlineTuneController::with_options(
        std::sync::Arc::new(otune_core::DataRepository::new()),
        fleet,
    );
    ctl.set_telemetry(telemetry.clone());
    // With a corpus attached, each task's manual-default calibration run
    // (the run that exists before tuning starts) supplies the meta-feature
    // query for a zero-execution retrieval bootstrap, and every completed
    // observation is appended back for future fleets.
    let retrieve = match &corpus {
        Some(p) => {
            let mut c = TuningCorpus::open(p.as_str())?;
            // The fleet hot path appends one record per completed run;
            // under a lazy OTUNE_JOURNAL_SYNC policy those appends batch
            // in memory and flush at end of run.
            c.set_sync_policy(SyncPolicy::from_env())?;
            c.set_telemetry(telemetry.clone());
            writeln!(
                out,
                "corpus: {} record(s) over {} task(s) from {p}",
                c.len(),
                c.n_tasks(),
            )?;
            let usable = !c.is_empty();
            ctl.set_corpus(c);
            usable
        }
        None => false,
    };
    let mut handles: Vec<TaskHandle> = Vec::with_capacity(tasks);
    let mut jobs: Vec<SimJob> = Vec::with_capacity(tasks);
    for i in 0..tasks {
        let workload = workloads[i % workloads.len()];
        let job =
            SimJob::new(ClusterSpec::hibench(), hibench_task(workload)).with_seed(seed + i as u64);
        let options = TunerOptions {
            beta: 0.5,
            budget,
            enable_meta: true,
            seed,
            pool: pool.clone(),
            ..TunerOptions::default()
        };
        let task_id = format!("{}-{i}", workload.name());
        let handle = if retrieve {
            let calibration = job.run(&space.default_configuration(), 0);
            ctl.create_task_with_features(
                &task_id,
                space.clone(),
                options,
                extract_meta_features(&calibration.event_log),
            )
        } else {
            ctl.create_task(&task_id, space.clone(), options)
        };
        handles.push(handle);
        jobs.push(job);
    }

    let mut suggest_s = 0.0f64;
    let mut report_s = 0.0f64;
    for wave in 0..budget as u64 {
        let requests: Vec<FleetRequest> = handles
            .iter()
            .map(|h| FleetRequest {
                handle: h,
                context: &[],
            })
            .collect();
        let start = std::time::Instant::now();
        let configs = ctl.request_configs(&requests);
        suggest_s += start.elapsed().as_secs_f64();
        let reports: Vec<FleetReport> = configs
            .into_iter()
            .enumerate()
            .map(|(i, cfg)| {
                let cfg = cfg.expect("registered task");
                let r = jobs[i].run(&cfg, wave);
                let meta = (wave == 0).then(|| extract_meta_features(&r.event_log));
                FleetReport {
                    handle: &handles[i],
                    config: cfg,
                    runtime_s: r.runtime_s,
                    resource: r.resource,
                    context: &[],
                    meta_features: meta,
                }
            })
            .collect();
        let start = std::time::Instant::now();
        let results = ctl.report_results(&reports);
        report_s += start.elapsed().as_secs_f64();
        for res in results {
            res.expect("pending suggestion");
        }
        writeln!(
            out,
            "  wave {:>3}: {tasks} suggestions, {tasks} reports",
            wave + 1
        )?;
    }
    let n_calls = (tasks * budget) as f64;
    writeln!(
        out,
        "\nthroughput: {:.1} suggestions/sec, {:.1} reports/sec",
        n_calls / suggest_s.max(1e-12),
        n_calls / report_s.max(1e-12),
    )?;
    let best = handles
        .iter()
        .filter_map(|h| ctl.best_config(h).ok().flatten().map(|_| h))
        .count();
    writeln!(out, "{best}/{tasks} task(s) hold an incumbent")?;
    if corpus.is_some() {
        // End-of-campaign durability barrier for lazily synced corpora.
        ctl.shared_meta().flush_corpus()?;
        writeln!(
            out,
            "corpus now holds {} record(s)",
            ctl.shared_meta().corpus_len()
        )?;
    }

    telemetry.flush();
    if let Some(snapshot) = telemetry.snapshot() {
        if let Some(events_path) = &events {
            let metrics_path = format!("{events_path}.metrics.json");
            let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
            std::fs::write(&metrics_path, json)?;
            writeln!(
                out,
                "events written to {events_path}, metrics to {metrics_path}"
            )?;
        }
        if let Some(prom_path) = &prom {
            std::fs::write(prom_path, prometheus_text(&snapshot))?;
            writeln!(out, "prometheus metrics written to {prom_path}")?;
        }
        write_snapshot(&snapshot, out)?;
    }
    if let Some(trace_path) = trace {
        let spans = telemetry.traces();
        std::fs::write(&trace_path, chrome_trace_json(&spans))?;
        writeln!(
            out,
            "\ntrace written to {trace_path} ({} span(s); load at ui.perfetto.dev)",
            spans.len()
        )?;
        write_attribution(&attribute(&spans), out)?;
    }
    Ok(0)
}

/// Run (or resume) a checkpointed campaign under the job engine.
///
/// With `auto` every remaining wave executes immediately and the fleet
/// summary prints; otherwise a line protocol is served from `input`
/// (normally stdin) so an external driver can execute suggested configs
/// itself and report results back. The journal at `journal_path` makes
/// the whole session `kill -9`-safe: rerunning the same command resumes
/// by replaying every journaled wave.
fn tune_serve(
    spec: CampaignSpec,
    journal_path: &str,
    events: Option<String>,
    auto: bool,
    policy: SyncPolicy,
    input: &mut dyn std::io::BufRead,
    out: &mut dyn Write,
) -> std::io::Result<i32> {
    let telemetry = match &events {
        Some(p) => Telemetry::new(Box::new(JsonlSink::create(p)?)),
        None => Telemetry::ring(1).0,
    };
    let mut engine = match JobEngine::open_or_start_with(
        spec,
        std::path::Path::new(journal_path),
        telemetry,
        policy,
    ) {
        Ok(engine) => engine,
        Err(e) => {
            writeln!(out, "cannot open campaign journal {journal_path}: {e}")?;
            return Ok(2);
        }
    };
    writeln!(
        out,
        "campaign {:?}: {} task(s), {} wave(s), at wave {}{}",
        engine.spec().job_id,
        engine.n_tasks(),
        engine.spec().budget,
        engine.wave_cursor(),
        if engine.is_completed() {
            " (completed)"
        } else {
            ""
        },
    )?;

    let code = if auto {
        match engine.run_to_completion() {
            Ok(_) => {
                let summary = engine.summary().expect("completed campaign").clone();
                write_fleet_summary(&summary, out)?;
                0
            }
            Err(e) => {
                writeln!(out, "campaign failed: {e}")?;
                1
            }
        }
    } else {
        serve_loop(&mut engine, input, out)?
    };

    engine.telemetry().flush();
    if let Some(events_path) = &events {
        if let Some(snapshot) = engine.telemetry().snapshot() {
            let metrics_path = format!("{events_path}.metrics.json");
            let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
            std::fs::write(&metrics_path, json)?;
            writeln!(
                out,
                "events written to {events_path}, metrics to {metrics_path}"
            )?;
        }
    }
    Ok(code)
}

/// The `tune-serve` stdin protocol: one command per line.
///
/// `suggest` prints the pending wave as JSON; `report <json>` feeds a
/// `[{task, runtime_s, resource, status}]` batch back; `wave` and `run`
/// execute on the built-in simulator; `checkpoint` forces a checkpoint;
/// `status` and `dlq` introspect; `stop` (or EOF) pauses with a
/// barriered `JobPaused` marker so the next invocation resumes exactly
/// here.
fn serve_loop(
    engine: &mut JobEngine,
    input: &mut dyn std::io::BufRead,
    out: &mut dyn Write,
) -> std::io::Result<i32> {
    // Protocol errors (bad JSON, reports against no pending wave) are
    // printed and served past; only journal I/O failures abort the loop.
    fn soft(out: &mut dyn Write, e: &JobError) -> std::io::Result<()> {
        writeln!(out, "error: {e}")
    }
    let mut line = String::new();
    loop {
        line.clear();
        if input.read_line(&mut line)? == 0 {
            // EOF: pause so the driver can resume later.
            if !engine.is_completed() {
                if let Err(e) = engine.pause() {
                    soft(out, &e)?;
                    return Ok(1);
                }
                writeln!(out, "paused at wave {}", engine.wave_cursor())?;
            }
            return Ok(0);
        }
        let cmd = line.trim();
        let (verb, rest) = match cmd.split_once(' ') {
            Some((v, r)) => (v, r.trim()),
            None => (cmd, ""),
        };
        match verb {
            "" => {}
            "suggest" => match engine.suggest_wave() {
                Ok(Some(wave)) => {
                    let json = serde_json::to_string(wave).expect("wave serializes");
                    writeln!(out, "{json}")?;
                }
                Ok(None) => writeln!(out, "completed")?,
                Err(e) => soft(out, &e)?,
            },
            "report" => match serde_json::from_str::<Vec<ItemResult>>(rest) {
                Err(e) => writeln!(out, "error: bad report JSON: {e}")?,
                Ok(results) => match engine.report_wave(&results) {
                    Ok(wave) => writeln!(out, "wave {wave} reported")?,
                    Err(e) => soft(out, &e)?,
                },
            },
            "wave" => match engine.run_wave() {
                Ok(Some(wave)) => writeln!(out, "wave {wave} completed")?,
                Ok(None) => writeln!(out, "completed")?,
                Err(e) => soft(out, &e)?,
            },
            "run" => match engine.run_to_completion() {
                Ok(summary) => {
                    let summary = summary.clone();
                    write_fleet_summary(&summary, out)?;
                }
                Err(e) => soft(out, &e)?,
            },
            "checkpoint" => match engine.checkpoint() {
                Ok(()) => writeln!(out, "checkpoint at wave {}", engine.wave_cursor())?,
                Err(e) => soft(out, &e)?,
            },
            "status" => writeln!(
                out,
                "{{\"job_id\":{:?},\"wave_cursor\":{},\"budget\":{},\"completed\":{},\"pending\":{},\"dead_lettered\":{}}}",
                engine.spec().job_id,
                engine.wave_cursor(),
                engine.spec().budget,
                engine.is_completed(),
                engine.pending().is_some(),
                engine.dlq().len(),
            )?,
            "dlq" => {
                let json = serde_json::to_string(engine.dlq()).expect("dlq serializes");
                writeln!(out, "{json}")?;
            }
            "stop" => {
                if !engine.is_completed() {
                    if let Err(e) = engine.pause() {
                        soft(out, &e)?;
                        return Ok(1);
                    }
                    writeln!(out, "paused at wave {}", engine.wave_cursor())?;
                }
                return Ok(0);
            }
            other => writeln!(
                out,
                "error: unknown command {other:?} (try suggest | report <json> | wave | run | checkpoint | status | dlq | stop)"
            )?,
        }
        out.flush()?;
    }
}

/// Print a completed campaign's reduce-phase summary.
fn write_fleet_summary(summary: &FleetSummary, out: &mut dyn Write) -> std::io::Result<()> {
    writeln!(
        out,
        "\ncampaign {:?} completed: {} wave(s), {} task(s), {} dead-lettered",
        summary.job_id, summary.waves, summary.n_tasks, summary.dead_lettered,
    )?;
    writeln!(
        out,
        "  {:<16} {:>6} {:>6} {:>12} {:>8}",
        "task", "obs", "fails", "best", "state"
    )?;
    for t in &summary.tasks {
        writeln!(
            out,
            "  {:<16} {:>6} {:>6} {:>12} {:>8}",
            t.task_id,
            t.n_observations,
            t.n_failures,
            match t.best_runtime_s {
                Some(r) => format!("{r:.1}s"),
                None => "-".into(),
            },
            if t.dead_lettered { "dead" } else { "ok" },
        )?;
    }
    Ok(())
}

/// `otune corpus build|stats|query`: manage a persistent tuning corpus.
fn corpus_cmd(action: CorpusAction, file: &str, out: &mut dyn Write) -> std::io::Result<i32> {
    match action {
        CorpusAction::Build {
            tasks,
            budget,
            seed,
        } => {
            // A fleet run with the corpus attached appends every run.
            tune_fleet(
                tasks,
                budget,
                None,
                None,
                seed,
                None,
                None,
                None,
                Some(file.to_string()),
                out,
            )
        }
        CorpusAction::Stats => {
            let c = TuningCorpus::open(file)?;
            writeln!(
                out,
                "corpus {file}: {} record(s), {} task(s), {} torn line(s)",
                c.len(),
                c.n_tasks(),
                c.torn_lines(),
            )?;
            if let Some(width) = c.dominant_width() {
                writeln!(out, "meta-feature width: {width} (dominant)")?;
                // What retrieval standardizes over: every record of the width.
                let n = c.compute_stats(width).map_or(0, |s| s.n);
                writeln!(
                    out,
                    "standardization stats: over {n} record(s) at width {width}"
                )?;
            }
            let failed = c.records().iter().filter(|r| r.failed).count();
            writeln!(out, "failed (never retrieved): {failed} record(s)")?;
            Ok(0)
        }
        CorpusAction::Query { task, k } => {
            let Some(workload) = find_task(&task) else {
                writeln!(out, "unknown task {task:?}; run `otune workloads`")?;
                return Ok(2);
            };
            let c = TuningCorpus::open(file)?;
            let space = spark_space(ClusterScale::hibench());
            let job = SimJob::new(ClusterSpec::hibench(), hibench_task(workload));
            let query =
                extract_meta_features(&job.run(&space.default_configuration(), 0).event_log);
            let index = c.index_for(query.len());
            if index.is_empty() {
                writeln!(
                    out,
                    "corpus {file} holds no usable record at width {} ({} record(s) total)",
                    query.len(),
                    c.len(),
                )?;
                return Ok(2);
            }
            writeln!(
                out,
                "top-{k} neighbors of {} in {file} ({} task(s) indexed):",
                workload.name(),
                index.len(),
            )?;
            for r in index.nearest(&query, k) {
                writeln!(
                    out,
                    "  {:<24} distance {:>8.4}  objective {:>12.1}",
                    r.point.task_id, r.distance, r.point.objective,
                )?;
            }
            match index.bootstrap(&space, &query, k, DEFAULT_MAX_DISTANCE) {
                Some(configs) => {
                    let blend = &configs[0];
                    writeln!(
                        out,
                        "blended bootstrap: executors {} x {}c x {}g, parallelism {} ({} config(s))",
                        blend[SparkParam::ExecutorInstances.index()],
                        blend[SparkParam::ExecutorCores.index()],
                        blend[SparkParam::ExecutorMemory.index()],
                        blend[SparkParam::DefaultParallelism.index()],
                        configs.len(),
                    )?;
                }
                None => writeln!(
                    out,
                    "no neighbor within distance {DEFAULT_MAX_DISTANCE}; tuning would fall back to low-discrepancy burn-in"
                )?,
            }
            Ok(0)
        }
    }
}

/// One base journal found in a `--journal-dir` scan, with everything
/// `otune jobs list` prints derived from one [`Journal::load`].
struct JournalRow {
    path: std::path::PathBuf,
    job_id: String,
    state: &'static str,
    waves: u64,
    /// Journal seq of the last checkpoint marker.
    last_checkpoint: Option<u64>,
    torn_lines: u64,
    segments: usize,
}

/// Scan `dir` for base journals: regular files that are not segments
/// an older build rotated a journal into (`<base>.NNNN`).
fn scan_base_journals(dir: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
    let mut bases = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if !entry.file_type()?.is_file() {
            continue;
        }
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let is_segment = name
            .rsplit_once('.')
            .is_some_and(|(_, s)| s.len() == 4 && s.bytes().all(|b| b.is_ascii_digit()));
        if is_segment {
            continue;
        }
        bases.push(entry.path());
    }
    bases.sort();
    Ok(bases)
}

/// Summarize one base journal for `otune jobs list` / `gc`.
fn summarize_journal(path: &std::path::Path) -> std::io::Result<JournalRow> {
    let load = Journal::load(path)?;
    let mut job_id = "-".to_string();
    let mut waves = 0u64;
    let mut completed = false;
    let mut last_checkpoint = None;
    let mut last_lifecycle: Option<&'static str> = None;
    for entry in &load.entries {
        match &entry.event {
            JobEvent::JobStarted { spec } => {
                job_id = spec.job_id.clone();
                last_lifecycle = Some("running");
            }
            JobEvent::JobResumed { .. } => last_lifecycle = Some("running"),
            JobEvent::JobPaused { .. } => last_lifecycle = Some("paused"),
            JobEvent::JobCompleted { summary } => {
                completed = true;
                waves = waves.max(summary.waves);
            }
            JobEvent::WaveCompleted { wave, .. } => waves = waves.max(wave + 1),
            JobEvent::CheckpointCreated { .. } => last_checkpoint = Some(entry.seq),
            _ => {}
        }
    }
    let state = if completed {
        "completed"
    } else {
        last_lifecycle.unwrap_or("no-job")
    };
    Ok(JournalRow {
        path: path.to_path_buf(),
        job_id,
        state,
        waves,
        last_checkpoint,
        torn_lines: load.torn_lines,
        segments: Journal::segments(path)?.len(),
    })
}

/// `otune jobs`: inspect and garbage-collect the journals of a campaign
/// directory.
fn jobs_cmd(action: JobsAction, journal_dir: &str, out: &mut dyn Write) -> std::io::Result<i32> {
    let dir = std::path::Path::new(journal_dir);
    if !dir.is_dir() {
        writeln!(out, "{journal_dir} is not a directory")?;
        return Ok(2);
    }
    let bases = scan_base_journals(dir)?;
    if bases.is_empty() {
        writeln!(out, "no journals in {journal_dir}")?;
        return Ok(0);
    }
    match action {
        JobsAction::List => {
            writeln!(
                out,
                "{:<24} {:<12} {:>5} {:>14} {:>4} {:>8}  journal",
                "job", "state", "waves", "last-ckpt", "torn", "segments",
            )?;
            for base in &bases {
                let row = summarize_journal(base)?;
                let ckpt = match row.last_checkpoint {
                    Some(seq) => seq.to_string(),
                    None => "-".to_string(),
                };
                writeln!(
                    out,
                    "{:<24} {:<12} {:>5} {:>14} {:>4} {:>8}  {}",
                    row.job_id,
                    row.state,
                    row.waves,
                    ckpt,
                    row.torn_lines,
                    row.segments,
                    row.path.display(),
                )?;
            }
            Ok(0)
        }
        JobsAction::Gc { keep } => {
            // Completed journals only; in-progress or paused campaigns are
            // never GC candidates. Keep the `keep` most recently modified.
            let mut completed = Vec::new();
            for base in &bases {
                let row = summarize_journal(base)?;
                if row.state == "completed" {
                    let mtime = std::fs::metadata(base)?.modified()?;
                    completed.push((mtime, row));
                }
            }
            completed.sort_by_key(|(mtime, _)| std::cmp::Reverse(*mtime));
            let mut removed = 0usize;
            for (_, row) in completed.iter().skip(keep) {
                for segment in Journal::segments(&row.path)? {
                    std::fs::remove_file(&segment)?;
                    removed += 1;
                }
                writeln!(out, "removed {} ({})", row.path.display(), row.job_id)?;
            }
            writeln!(
                out,
                "gc: {} completed journal(s), kept {}, removed {} file(s)",
                completed.len(),
                completed.len().min(keep),
                removed,
            )?;
            Ok(0)
        }
    }
}

/// `otune events`: replay a JSONL event stream, optionally filtered by
/// task id and event kind. Lines that do not decode (a crash-torn tail)
/// are skipped and counted, as `otune top` does.
fn events_cmd(
    file: &str,
    task: Option<&str>,
    kind: Option<&str>,
    out: &mut dyn Write,
) -> std::io::Result<i32> {
    let (events, torn) = match read_healed::<Event>(file) {
        Ok(h) => (h.items, h.torn_lines),
        Err(e) => {
            writeln!(out, "cannot read {file}: {e}")?;
            return Ok(2);
        }
    };
    let mut shown = 0usize;
    for e in &events {
        if task.is_some_and(|t| e.task != t) || kind.is_some_and(|k| e.kind.label() != k) {
            continue;
        }
        shown += 1;
        let detail = serde_json::to_string(&e.kind).unwrap_or_default();
        writeln!(
            out,
            "{:>6}  iter {:>4}  {:<16} {}",
            e.seq, e.iteration, e.task, detail
        )?;
    }
    writeln!(
        out,
        "{shown} event(s) shown ({} total){}",
        events.len(),
        if torn > 0 {
            format!(", {torn} torn line(s) skipped")
        } else {
            String::new()
        }
    )?;
    Ok(0)
}

/// `otune stats`: print the metrics snapshot of a tuning session as a
/// summary table. Accepts the metrics JSON directly, or the events path
/// when a `<path>.metrics.json` sidecar exists.
fn stats_cmd(file: &str, json: bool, prom: bool, out: &mut dyn Write) -> std::io::Result<i32> {
    let sidecar = format!("{file}.metrics.json");
    let path = if std::path::Path::new(&sidecar).exists() {
        &sidecar
    } else {
        file
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            writeln!(out, "cannot read {path}: {e}")?;
            return Ok(2);
        }
    };
    let snapshot: MetricsSnapshot = match serde_json::from_str(&text) {
        Ok(s) => s,
        Err(e) => {
            writeln!(out, "{path} is not a metrics snapshot: {e:?}")?;
            return Ok(2);
        }
    };
    if json {
        // Machine-readable mode: the snapshot re-serialized with stable
        // (sorted) key order, no human framing.
        let text = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
        writeln!(out, "{text}")?;
        return Ok(0);
    }
    if prom {
        write!(out, "{}", prometheus_text(&snapshot))?;
        return Ok(0);
    }
    writeln!(out, "metrics from {path}")?;
    write_snapshot(&snapshot, out)?;
    Ok(0)
}

/// `otune trace`: extract the `SpanClosed` spans of a JSONL event stream,
/// optionally write them as a Chrome-trace/Perfetto JSON file, and print
/// per-phase latency attribution.
fn trace_cmd(file: &str, out_path: Option<&str>, out: &mut dyn Write) -> std::io::Result<i32> {
    let (events, torn) = match read_healed::<Event>(file) {
        Ok(h) => (h.items, h.torn_lines),
        Err(e) => {
            writeln!(out, "cannot read {file}: {e}")?;
            return Ok(2);
        }
    };
    let spans = spans_from_events(&events);
    if spans.is_empty() {
        writeln!(
            out,
            "{file} carries no trace spans; re-run `otune tune`/`tune-fleet` with --trace and --events"
        )?;
        return Ok(2);
    }
    writeln!(
        out,
        "{} span(s) from {} event(s) in {file}{}",
        spans.len(),
        events.len(),
        if torn > 0 {
            format!(" ({torn} torn line(s) skipped)")
        } else {
            String::new()
        }
    )?;
    if let Some(path) = out_path {
        std::fs::write(path, chrome_trace_json(&spans))?;
        writeln!(out, "trace written to {path} (load at ui.perfetto.dev)")?;
    }
    write_attribution(&attribute(&spans), out)?;
    Ok(0)
}

/// Print an attribution report as a flamegraph-style rollup: per-phase
/// counts, inclusive and exclusive milliseconds, and each phase's share
/// of the root wall-clock.
fn write_attribution(report: &AttributionReport, out: &mut dyn Write) -> std::io::Result<()> {
    let ms = |ns: u64| ns as f64 / 1e6;
    writeln!(
        out,
        "\nlatency attribution: {} trace(s), wall {:.3} ms, exclusive sum {:.3} ms",
        report.traces,
        ms(report.wall_ns),
        ms(report.exclusive_sum_ns()),
    )?;
    writeln!(
        out,
        "  {:<20} {:>7} {:>12} {:>12} {:>7}",
        "phase", "count", "total ms", "excl ms", "excl %"
    )?;
    for row in &report.rows {
        let share = if report.wall_ns > 0 {
            100.0 * row.exclusive_ns as f64 / report.wall_ns as f64
        } else {
            0.0
        };
        writeln!(
            out,
            "  {:<20} {:>7} {:>12.3} {:>12.3} {:>6.1}%",
            row.name,
            row.count,
            ms(row.total_ns),
            ms(row.exclusive_ns),
            share,
        )?;
    }
    Ok(())
}

/// `otune top`: one rendered frame of fleet state from a JSONL event
/// stream — per-task incumbents, wave latency percentiles, failure and
/// fallback counts, cache hit rates from the metrics sidecar.
fn top_cmd(file: &str, watch: Option<f64>, out: &mut dyn Write) -> std::io::Result<i32> {
    let Some(interval) = watch else {
        return render_top(file, out);
    };
    loop {
        // ANSI clear + home, like top(1); the stream is re-read each frame
        // so a live `tune-fleet --events` run can be watched from another
        // terminal.
        write!(out, "\x1b[2J\x1b[H")?;
        let code = render_top(file, out)?;
        if code != 0 {
            return Ok(code);
        }
        out.flush()?;
        std::thread::sleep(std::time::Duration::from_secs_f64(interval.max(0.1)));
    }
}

fn render_top(file: &str, out: &mut dyn Write) -> std::io::Result<i32> {
    let (events, torn) = match read_healed::<Event>(file) {
        Ok(h) => (h.items, h.torn_lines),
        Err(e) => {
            writeln!(out, "cannot read {file}: {e}")?;
            return Ok(2);
        }
    };
    writeln!(
        out,
        "fleet status from {file}: {} event(s){}",
        events.len(),
        if torn > 0 {
            format!(", {torn} torn line(s) skipped")
        } else {
            String::new()
        }
    )?;

    // Per-task rollup, in first-seen order.
    struct TaskRow {
        iters: u64,
        incumbent: Option<(f64, f64)>, // (objective, runtime)
        failures: u64,
        stopped: bool,
    }
    let mut order: Vec<&str> = Vec::new();
    let mut rows: std::collections::HashMap<&str, TaskRow> = std::collections::HashMap::new();
    let mut fallbacks = 0u64;
    let mut run_failures = 0u64;
    for e in &events {
        if !e.task.is_empty() && !rows.contains_key(e.task.as_str()) {
            order.push(&e.task);
            rows.insert(
                &e.task,
                TaskRow {
                    iters: 0,
                    incumbent: None,
                    failures: 0,
                    stopped: false,
                },
            );
        }
        let row = rows.get_mut(e.task.as_str());
        match &e.kind {
            EventKind::ObservationReported {
                objective,
                runtime,
                constraint_violated,
                ..
            } => {
                if let Some(row) = row {
                    row.iters += 1;
                    if !constraint_violated
                        && row.incumbent.is_none_or(|(best, _)| *objective < best)
                    {
                        row.incumbent = Some((*objective, *runtime));
                    }
                }
            }
            EventKind::RunFailed { .. } => {
                run_failures += 1;
                if let Some(row) = row {
                    row.iters += 1;
                    row.failures += 1;
                }
            }
            EventKind::FallbackTriggered { .. } => fallbacks += 1,
            EventKind::TaskStopped { .. } => {
                if let Some(row) = row {
                    row.stopped = true;
                }
            }
            _ => {}
        }
    }
    if !order.is_empty() {
        writeln!(
            out,
            "\n  {:<20} {:>6} {:>12} {:>10} {:>6} {:>8}",
            "task", "iters", "incumbent", "runtime", "fails", "state"
        )?;
        for task in &order {
            let row = &rows[task];
            let (obj, rt) = match row.incumbent {
                Some((o, r)) => (format!("{o:.1}"), format!("{r:.1}s")),
                None => ("-".into(), "-".into()),
            };
            writeln!(
                out,
                "  {:<20} {:>6} {:>12} {:>10} {:>6} {:>8}",
                task,
                row.iters,
                obj,
                rt,
                row.failures,
                if row.stopped { "stopped" } else { "tuning" },
            )?;
        }
    }

    // Wave latency from the fleet wave spans embedded in the stream.
    let mut wave_ns: Vec<u64> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::SpanClosed { name, dur_ns, .. } if name.starts_with("fleet_wave") => {
                Some(*dur_ns)
            }
            _ => None,
        })
        .collect();
    if !wave_ns.is_empty() {
        wave_ns.sort_unstable();
        let pct = |q: f64| {
            let idx = ((wave_ns.len() - 1) as f64 * q).round() as usize;
            wave_ns[idx] as f64 / 1e6
        };
        writeln!(
            out,
            "\nwave latency: p50 {:.3} ms, p95 {:.3} ms ({} wave(s))",
            pct(0.50),
            pct(0.95),
            wave_ns.len(),
        )?;
    }
    writeln!(
        out,
        "failures: {run_failures} run(s) failed, {fallbacks} fallback(s)"
    )?;

    // Job-engine rollup, when the stream came from a campaign.
    let (mut job_waves, mut retries, mut dead, mut checkpoints, mut resumes) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut job_state: Option<&str> = None;
    for e in &events {
        match &e.kind {
            EventKind::JobStarted { .. } => job_state = Some("running"),
            EventKind::JobPaused { .. } => job_state = Some("paused"),
            EventKind::JobCompleted { .. } => job_state = Some("completed"),
            EventKind::WaveCompleted { .. } => job_waves += 1,
            EventKind::RetryScheduled { .. } => retries += 1,
            EventKind::ItemDeadLettered { .. } => dead += 1,
            EventKind::CheckpointCreated { .. } => checkpoints += 1,
            EventKind::JobResumed { .. } => resumes += 1,
            _ => {}
        }
    }
    if let Some(state) = job_state {
        writeln!(
            out,
            "job engine: {state}, {job_waves} wave(s), {checkpoints} checkpoint(s), \
             {resumes} resume(s), {retries} retry(s), {dead} dead-letter(s)"
        )?;
    }

    // Cache hit rates from the metrics sidecar, when present.
    let sidecar = format!("{file}.metrics.json");
    if let Ok(text) = std::fs::read_to_string(&sidecar) {
        if let Ok(snapshot) = serde_json::from_str::<MetricsSnapshot>(&text) {
            let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
            let mut line = String::new();
            for (label, hits, misses) in [
                (
                    "surrogate",
                    "surrogate_cache_hits",
                    "surrogate_cache_misses",
                ),
                ("shared-meta", "shared_meta_hits", "shared_meta_misses"),
                ("shared-dist", "shared_dist_hits", "shared_dist_misses"),
                ("retrieval", "retrieval_hits", "retrieval_misses"),
            ] {
                let (h, m) = (counter(hits), counter(misses));
                if h + m > 0 {
                    line.push_str(&format!(
                        "{}{label} {:.0}% ({h}/{})",
                        if line.is_empty() { "" } else { ", " },
                        100.0 * h as f64 / (h + m) as f64,
                        h + m,
                    ));
                }
            }
            if !line.is_empty() {
                writeln!(out, "cache hit rates: {line}")?;
            }
            let (batches, fsyncs, jbytes) = (
                counter("journal_batches"),
                counter("journal_fsyncs"),
                counter("journal_bytes"),
            );
            if batches + fsyncs + jbytes > 0 {
                writeln!(
                    out,
                    "durability: {batches} batch(es), {fsyncs} fsync(s), {jbytes} journal byte(s), \
                     {} checkpoint byte(s), {} corpus flush(es)",
                    counter("checkpoint_full_bytes"),
                    counter("corpus_flushes"),
                )?;
            }
            let dropped = counter("events_dropped") + counter("spans_dropped");
            if dropped > 0 {
                writeln!(
                    out,
                    "WARNING: {dropped} event(s)/span(s) dropped at capture"
                )?;
            }
        }
    }
    Ok(0)
}

/// Print a metrics snapshot as a summary table. Fleet runs surface the
/// sharding gauges (`fleet_shards`, `fleet_tasks`), wave spans
/// (`fleet_wave_s`), shared-cache hit counters (`shared_meta_*`,
/// `shared_dist_*`) and similarity refit counters here alongside the
/// per-task tuning metrics.
fn write_snapshot(snapshot: &MetricsSnapshot, out: &mut dyn Write) -> std::io::Result<()> {
    if !snapshot.counters.is_empty() {
        writeln!(out, "\ncounters:")?;
        for (name, value) in &snapshot.counters {
            writeln!(out, "  {name:<28} {value:>10}")?;
        }
    }
    if !snapshot.gauges.is_empty() {
        writeln!(out, "\ngauges:")?;
        for (name, value) in &snapshot.gauges {
            writeln!(out, "  {name:<28} {value:>10.2}")?;
        }
    }
    if !snapshot.histograms.is_empty() {
        writeln!(out, "\nhistograms:")?;
        writeln!(
            out,
            "  {:<28} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "name", "count", "mean", "min", "p50", "p95", "p99", "max"
        )?;
        for (name, h) in &snapshot.histograms {
            writeln!(
                out,
                "  {:<28} {:>8} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6}",
                name, h.count, h.mean, h.min, h.p50, h.p95, h.p99, h.max
            )?;
        }
    }
    Ok(())
}

fn compare(
    task: HibenchTask,
    budget: usize,
    seeds: u64,
    out: &mut dyn Write,
) -> std::io::Result<()> {
    let space = spark_space(ClusterScale::hibench());
    let job = SimJob::new(ClusterSpec::hibench(), hibench_task(task));
    let t_max = 2.0
        * job
            .clone()
            .with_noise(0.0)
            .run(&space.default_configuration(), 0)
            .runtime_s;
    writeln!(
        out,
        "comparing methods on {} (cost objective, {budget} iters, {seeds} seed(s))",
        task.name()
    )?;

    let objective = Objective::cost();
    let run_baseline = |tuner: &mut dyn Tuner, seed: u64| -> f64 {
        let mut history: Vec<Observation> = Vec::new();
        let mut best = f64::INFINITY;
        for t in 0..budget as u64 {
            let cfg = tuner.suggest(&history, &[]);
            let r = job.run(&cfg, seed * 131 + t);
            if within_constraints(r.runtime_s, r.resource, Some(t_max), None) {
                best = best.min(r.runtime_s * r.resource);
            }
            history.push(Observation {
                failed: false,
                config: cfg,
                objective: objective.eval(r.runtime_s, r.resource),
                runtime: r.runtime_s,
                resource: r.resource,
                context: vec![],
            });
        }
        best
    };

    let mut rows: Vec<(String, f64)> = Vec::new();
    for name in ["Random", "RFHOC", "DAC", "CherryPick", "Tuneful", "LOCAT"] {
        let mut avg = 0.0;
        for s in 1..=seeds {
            let mut t: Box<dyn Tuner> = match name {
                "Random" => Box::new(RandomSearch::new(space.clone(), s)),
                "RFHOC" => Box::new(Rfhoc::new(space.clone(), s)),
                "DAC" => Box::new(Dac::new(space.clone(), s)),
                "CherryPick" => Box::new(CherryPick::new(space.clone(), Some(t_max), s)),
                "Tuneful" => Box::new(Tuneful::new(space.clone(), s)),
                _ => Box::new(Locat::new(space.clone(), s)),
            };
            avg += run_baseline(t.as_mut(), s) / seeds as f64;
        }
        rows.push((name.to_string(), avg));
    }
    // Ours.
    let mut avg = 0.0;
    for s in 1..=seeds {
        let mut tuner = OnlineTuner::new(
            space.clone(),
            TunerOptions {
                beta: 0.5,
                t_max: Some(t_max),
                budget,
                enable_meta: false,
                seed: s,
                ..TunerOptions::default()
            },
        );
        let mut best = f64::INFINITY;
        for t in 0..budget as u64 {
            let cfg = tuner.suggest(&[]).expect("protocol");
            let r = job.run(&cfg, s * 977 + t);
            if within_constraints(r.runtime_s, r.resource, Some(t_max), None) {
                best = best.min(r.runtime_s * r.resource);
            }
            tuner
                .observe(cfg, r.runtime_s, r.resource, &[])
                .expect("pending");
        }
        avg += best / seeds as f64;
    }
    rows.push(("Ours".to_string(), avg));

    let random = rows[0].1;
    for (name, cost) in &rows {
        writeln!(
            out,
            "  {:<11} best cost {:>12.0}   ({:+.1}% vs random)",
            name,
            cost,
            (cost - random) / random * 100.0
        )?;
    }
    Ok(())
}

fn importance(task: HibenchTask, samples: usize, out: &mut dyn Write) -> std::io::Result<()> {
    let space = spark_space(ClusterScale::hibench());
    let job = SimJob::new(ClusterSpec::hibench(), hibench_task(task));
    let mut rng = StdRng::seed_from_u64(1);
    let configs = space.sample_n(samples, &mut rng);
    let x: Vec<Vec<f64>> = configs.iter().map(|c| space.encode(c)).collect();
    let y: Vec<f64> = configs
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let r = job.run(c, i as u64);
            Objective::cost().eval(r.runtime_s, r.resource).ln()
        })
        .collect();
    let f = Fanova::fit(&x, &y, 2, &Pool::from_env()).expect("valid history");
    let imp = f.importance();
    writeln!(
        out,
        "fANOVA importance for {} ({} samples, log cost):",
        task.name(),
        samples
    )?;
    for (rank, &p) in f.ranking().iter().take(10).enumerate() {
        writeln!(
            out,
            "  {:>2}. {:<42} {:.4}",
            rank + 1,
            spark_param_names()[p],
            imp[p]
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("otune-cli-serve-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_spec() -> CampaignSpec {
        CampaignSpec {
            job_id: "serve-test".to_string(),
            n_tasks: 2,
            budget: 2,
            seed: 7,
            checkpoint_every: 1,
            ..CampaignSpec::default()
        }
    }

    #[test]
    fn tune_serve_auto_completes_then_reports_completed_on_rerun() {
        let journal = serve_dir("auto").join("journal.jsonl");
        let _ = std::fs::remove_file(&journal);
        let path = journal.to_string_lossy().into_owned();

        let mut buf = Vec::new();
        let code = tune_serve(
            small_spec(),
            &path,
            None,
            true,
            SyncPolicy::Every,
            &mut std::io::Cursor::new(""),
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("campaign \"serve-test\""), "{text}");
        assert!(text.contains("completed: 2 wave(s), 2 task(s)"), "{text}");

        // Re-running against the same journal resumes a finished campaign.
        let mut buf = Vec::new();
        let code = tune_serve(
            small_spec(),
            &path,
            None,
            true,
            SyncPolicy::Every,
            &mut std::io::Cursor::new(""),
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("(completed)"), "{text}");
    }

    #[test]
    fn serve_loop_protocol_drives_a_campaign() {
        let journal = serve_dir("proto").join("journal.jsonl");
        let _ = std::fs::remove_file(&journal);
        let script = "status\nsuggest\nwave\nbogus\nrun\ndlq\nstop\n";
        let mut buf = Vec::new();
        let code = tune_serve(
            small_spec(),
            &journal.to_string_lossy(),
            None,
            false,
            SyncPolicy::Every,
            &mut std::io::Cursor::new(script),
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"wave_cursor\":0"), "{text}");
        assert!(
            text.contains("\"items\""),
            "suggest prints the wave: {text}"
        );
        assert!(text.contains("wave 0 completed"), "{text}");
        assert!(text.contains("unknown command \"bogus\""), "{text}");
        assert!(text.contains("completed: 2 wave(s)"), "{text}");
        assert!(text.contains("[]"), "empty dlq prints: {text}");
    }

    #[test]
    fn serve_loop_external_report_path_and_eof_pause() {
        // An external driver executes the suggested wave itself: fetch the
        // pending wave out-of-band, report its results over the protocol,
        // then hit EOF — the engine must pause with a checkpoint.
        let journal = serve_dir("extern").join("journal.jsonl");
        let _ = std::fs::remove_file(&journal);
        let (t, _s) = otune_core::telemetry::Telemetry::ring(1024);
        let mut engine = JobEngine::start(small_spec(), &journal, t).unwrap();
        engine.suggest_wave().unwrap();
        let results = engine.execute_pending().unwrap();
        let report = serde_json::to_string(&results).unwrap();

        let script = format!("suggest\nreport {report}\nstatus\n");
        let mut buf = Vec::new();
        let code = serve_loop(&mut engine, &mut std::io::Cursor::new(script), &mut buf).unwrap();
        assert_eq!(code, 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("wave 0 reported"), "{text}");
        assert!(text.contains("\"wave_cursor\":1"), "{text}");
        assert!(text.contains("paused at wave 1"), "EOF pauses: {text}");

        // A malformed report and a report with no pending wave are soft
        // protocol errors: the loop keeps serving.
        let script = "report {nope\nreport [{\"task\":0,\"runtime_s\":1.0,\"resource\":1.0,\"status\":\"success\"}]\nstop\n";
        let mut buf = Vec::new();
        let code = serve_loop(&mut engine, &mut std::io::Cursor::new(script), &mut buf).unwrap();
        assert_eq!(code, 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("bad report JSON"), "{text}");
        assert!(text.contains("no suggested wave"), "{text}");
        assert!(text.contains("paused at wave 1"), "{text}");
    }

    /// A serve script that snapshots the journal just before handing out
    /// each line, i.e. once the previous command has been fully applied.
    struct JournalWatch {
        lines: std::vec::IntoIter<String>,
        line: Vec<u8>,
        pos: usize,
        journal: std::path::PathBuf,
        before: Vec<Vec<u8>>,
    }

    impl std::io::Read for JournalWatch {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = std::io::Read::read(&mut std::io::BufRead::fill_buf(self)?, buf)?;
            std::io::BufRead::consume(self, n);
            Ok(n)
        }
    }

    impl std::io::BufRead for JournalWatch {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            if self.pos == self.line.len() {
                if let Some(next) = self.lines.next() {
                    self.before.push(std::fs::read(&self.journal)?);
                    self.line = format!("{next}\n").into_bytes();
                    self.pos = 0;
                }
            }
            Ok(&self.line[self.pos..])
        }

        fn consume(&mut self, n: usize) {
            self.pos += n;
        }
    }

    #[test]
    fn serve_loop_rejects_unusable_reports_without_side_effects() {
        let journal = serve_dir("hostile").join("journal.jsonl");
        let _ = std::fs::remove_file(&journal);
        let (t, _s) = otune_core::telemetry::Telemetry::ring(1024);
        let mut engine = JobEngine::start(small_spec(), &journal, t).unwrap();
        engine.suggest_wave().unwrap();
        let results = engine.execute_pending().unwrap();
        // Render the batch with one item's fields replaced by raw JSON
        // text, so values serde would never write (1e400) can be sent.
        let hostile = |task: usize, runtime: &str, resource: &str, status: &str| {
            let items: Vec<String> = results
                .iter()
                .map(|r| {
                    let (rt, res, st) = if r.task == task {
                        (runtime.to_string(), resource.to_string(), status)
                    } else {
                        (
                            r.runtime_s.to_string(),
                            r.resource.to_string(),
                            r.status.as_str(),
                        )
                    };
                    format!(
                        "{{\"task\":{},\"runtime_s\":{rt},\"resource\":{res},\"status\":\"{st}\"}}",
                        r.task
                    )
                })
                .collect();
            format!("report [{}]", items.join(","))
        };
        let mut duplicate = results.clone();
        duplicate.insert(
            1,
            ItemResult {
                runtime_s: results[0].runtime_s * 0.5,
                ..results[0].clone()
            },
        );
        let bad = [
            (
                format!("report {}", serde_json::to_string(&duplicate).unwrap()),
                "report names task 0 more than once",
            ),
            (
                hostile(0, "1e400", "10.0", "success"),
                "task 0 has unusable runtime_s inf",
            ),
            (
                hostile(0, "-5.0", "10.0", "success"),
                "task 0 has unusable runtime_s -5",
            ),
            (
                hostile(0, "0.0", "10.0", "success"),
                "task 0 has unusable runtime_s 0",
            ),
            (
                hostile(1, "3.0", "-1e400", "oom_killed"),
                "task 1 has unusable resource -inf",
            ),
            (
                hostile(1, "-0.5", "1.0", "timeout_killed"),
                "task 1 has unusable runtime_s -0.5",
            ),
            (
                hostile(0, "3.0", "10.0", "exploded"),
                "task 0 has unusable status \"exploded\"",
            ),
        ];
        let mut lines: Vec<String> = bad.iter().map(|(line, _)| line.clone()).collect();
        lines.push(format!(
            "report {}",
            serde_json::to_string(&results).unwrap()
        ));
        lines.push("status".to_string());
        let mut script = JournalWatch {
            lines: lines.into_iter(),
            line: Vec::new(),
            pos: 0,
            journal: journal.clone(),
            before: Vec::new(),
        };
        let mut buf = Vec::new();
        let code = serve_loop(&mut engine, &mut script, &mut buf).unwrap();
        assert_eq!(code, 0);
        let text = String::from_utf8(buf).unwrap();
        let replies: Vec<&str> = text.lines().collect();
        for (i, (_, reason)) in bad.iter().enumerate() {
            assert!(replies[i].starts_with("error:"), "{text}");
            assert!(replies[i].contains(reason), "line {i}: {text}");
        }
        // No hostile line touched the journal; the corrected report did.
        let before = &script.before;
        assert_eq!(before.len(), bad.len() + 2);
        for (i, snapshot) in before.iter().enumerate().take(bad.len() + 1) {
            assert!(
                snapshot == &before[0],
                "hostile line {i} changed the journal"
            );
        }
        assert_eq!(replies[bad.len()], "wave 0 reported", "{text}");
        assert!(before[bad.len() + 1].len() > before[0].len());
        assert!(text.contains("paused at wave 1"), "{text}");

        drop(engine);
        let reopened = JobEngine::open(&journal, Telemetry::disabled()).unwrap();
        assert_eq!(reopened.wave_cursor(), 1);
        assert!(reopened.pending().is_none());
    }

    #[test]
    fn jobs_list_and_gc_manage_a_journal_dir() {
        let dir = serve_dir("jobs-cmd");
        // Start from an empty directory each run.
        for entry in std::fs::read_dir(&dir).unwrap().flatten() {
            let _ = std::fs::remove_file(entry.path());
        }
        let (t, _s) = otune_core::telemetry::Telemetry::ring(4096);

        // Journal A: a completed campaign.
        let done = dir.join("done.jsonl");
        let mut spec = small_spec();
        spec.job_id = "jobs-done".to_string();
        let mut engine = JobEngine::start(spec, &done, t.clone()).unwrap();
        engine.run_to_completion().unwrap();
        drop(engine);

        // Journal B: a campaign paused mid-flight.
        let paused = dir.join("paused.jsonl");
        let mut spec = small_spec();
        spec.job_id = "jobs-paused".to_string();
        let mut engine = JobEngine::start(spec, &paused, t).unwrap();
        engine.suggest_wave().unwrap();
        let results = engine.execute_pending().unwrap();
        engine.report_wave(&results).unwrap();
        engine.pause().unwrap();
        drop(engine);

        let dir_str = dir.to_string_lossy().into_owned();
        let mut buf = Vec::new();
        assert_eq!(jobs_cmd(JobsAction::List, &dir_str, &mut buf).unwrap(), 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("jobs-done"), "{text}");
        assert!(text.contains("completed"), "{text}");
        assert!(text.contains("jobs-paused"), "{text}");
        assert!(text.contains("paused"), "{text}");
        let done_row = text.lines().find(|l| l.contains("jobs-done")).unwrap();
        assert!(
            done_row.split_whitespace().nth(3).is_some_and(|c| c != "-"),
            "checkpoint seq shown: {text}"
        );

        // gc keep 1 retains the single completed journal…
        let mut buf = Vec::new();
        assert_eq!(
            jobs_cmd(JobsAction::Gc { keep: 1 }, &dir_str, &mut buf).unwrap(),
            0
        );
        assert!(done.exists(), "keep=1 retains the only completed journal");

        // …and gc keep 0 removes it but never touches the paused one.
        let mut buf = Vec::new();
        assert_eq!(
            jobs_cmd(JobsAction::Gc { keep: 0 }, &dir_str, &mut buf).unwrap(),
            0
        );
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("removed"), "{text}");
        assert!(!done.exists(), "completed journal removed");
        assert!(paused.exists(), "paused journal is never a gc candidate");

        // A missing directory is a soft error.
        let mut buf = Vec::new();
        assert_eq!(
            jobs_cmd(JobsAction::List, "/nonexistent-otune-dir", &mut buf).unwrap(),
            2
        );
    }

    #[test]
    fn jobs_list_and_gc_handle_older_segmented_journals() {
        let dir = serve_dir("jobs-segmented");
        for entry in std::fs::read_dir(&dir).unwrap().flatten() {
            let _ = std::fs::remove_file(entry.path());
        }
        let (t, _s) = otune_core::telemetry::Telemetry::ring(4096);
        let done = dir.join("done.jsonl");
        let mut spec = small_spec();
        spec.job_id = "jobs-segmented".to_string();
        let mut engine = JobEngine::start(spec, &done, t).unwrap();
        engine.run_to_completion().unwrap();
        drop(engine);
        // Split the completed journal the way older builds rotated one:
        // the later lines move to the segment `done.jsonl.0001`.
        let text = std::fs::read_to_string(&done).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let (head, tail) = lines.split_at(lines.len() / 2);
        let segment = dir.join("done.jsonl.0001");
        std::fs::write(&done, head.join("\n") + "\n").unwrap();
        std::fs::write(&segment, tail.join("\n") + "\n").unwrap();

        let dir_str = dir.to_string_lossy().into_owned();
        let mut buf = Vec::new();
        assert_eq!(jobs_cmd(JobsAction::List, &dir_str, &mut buf).unwrap(), 0);
        let text = String::from_utf8(buf).unwrap();
        let rows: Vec<Vec<&str>> = text
            .lines()
            .skip(1)
            .map(|row| row.split_whitespace().collect())
            .collect();
        assert_eq!(rows.len(), 1, "one row per journal, not per file: {text}");
        assert_eq!(
            (rows[0][0], rows[0][1], rows[0][5]),
            ("jobs-segmented", "completed", "2"),
            "job, state and segment count: {text}"
        );

        let mut buf = Vec::new();
        assert_eq!(
            jobs_cmd(JobsAction::Gc { keep: 0 }, &dir_str, &mut buf).unwrap(),
            0
        );
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("removed 2 file(s)"), "{text}");
        assert!(!done.exists(), "base file removed");
        assert!(!segment.exists(), "segment removed");
    }

    #[test]
    fn workloads_lists_all_sixteen() {
        let mut buf = Vec::new();
        assert_eq!(run(Command::Workloads, &mut buf).unwrap(), 0);
        let text = String::from_utf8(buf).unwrap();
        for t in HibenchTask::all() {
            assert!(text.contains(t.name()), "missing {}", t.name());
        }
    }

    #[test]
    fn unknown_task_is_a_soft_error() {
        let mut buf = Vec::new();
        let code = run(
            Command::Tune {
                task: "nope".into(),
                beta: 0.5,
                budget: 2,
                seed: 0,
                no_safety: false,
                no_subspace: false,
                no_agd: false,
                out: None,
                events: None,
                fault_profile: None,
                trace: None,
                corpus: None,
            },
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 2);
        assert!(String::from_utf8(buf).unwrap().contains("unknown task"));
    }

    #[test]
    fn tune_runs_and_writes_history() {
        let dir = std::env::temp_dir().join("otune_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hist.json");
        let mut buf = Vec::new();
        let code = run(
            Command::Tune {
                task: "wordcount".into(),
                beta: 0.5,
                budget: 4,
                seed: 1,
                no_safety: false,
                no_subspace: false,
                no_agd: true,
                out: Some(path.to_string_lossy().into_owned()),
                events: None,
                fault_profile: None,
                trace: None,
                corpus: None,
            },
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("best executors"), "{text}");
        let json = std::fs::read_to_string(&path).unwrap();
        let hist: Vec<serde_json::Value> = serde_json::from_str(&json).unwrap();
        assert_eq!(hist.len(), 5, "baseline + 4 iterations");
    }

    #[test]
    fn tune_with_events_then_replay_and_stats() {
        let dir = std::env::temp_dir().join("otune_cli_events_test");
        std::fs::create_dir_all(&dir).unwrap();
        let events_path = dir.join("run.jsonl").to_string_lossy().into_owned();

        let mut buf = Vec::new();
        let code = run(
            Command::Tune {
                task: "wordcount".into(),
                beta: 0.5,
                budget: 4,
                seed: 1,
                no_safety: false,
                no_subspace: false,
                no_agd: true,
                out: None,
                events: Some(events_path.clone()),
                fault_profile: None,
                trace: None,
                corpus: None,
            },
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 0);
        assert!(String::from_utf8(buf).unwrap().contains("metrics to"));

        // Replay the full stream.
        let mut buf = Vec::new();
        let code = run(
            Command::Events {
                file: events_path.clone(),
                task: None,
                kind: None,
            },
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("TaskRegistered"), "{text}");
        assert!(text.contains("SuggestionMade"), "{text}");
        assert!(text.contains("TaskStopped"), "{text}");

        // Kind filter narrows the stream.
        let mut buf = Vec::new();
        run(
            Command::Events {
                file: events_path.clone(),
                task: Some("wordcount".into()),
                kind: Some("SuggestionMade".into()),
            },
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(!text.contains("TaskRegistered"), "{text}");
        assert!(text.contains("SuggestionMade"), "{text}");

        // A stream recorded without --trace carries no spans: `otune
        // trace` refuses with a pointer at the flag instead of writing an
        // empty Perfetto file.
        let mut buf = Vec::new();
        let code = run(
            Command::Trace {
                file: events_path.clone(),
                out: None,
            },
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 2);
        assert!(String::from_utf8(buf).unwrap().contains("no trace spans"));

        // `otune top` reads the tuner's own announcements: the task row
        // counts the 4 tuning runs and shows an incumbent.
        let mut buf = Vec::new();
        let code = run(
            Command::Top {
                file: events_path.clone(),
                watch: None,
            },
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 0);
        let text = String::from_utf8(buf).unwrap();
        let row: Vec<&str> = text
            .lines()
            .find(|l| l.trim_start().starts_with("wordcount "))
            .unwrap_or_else(|| panic!("no task row: {text}"))
            .split_whitespace()
            .collect();
        assert_eq!(row[1], "4", "{text}");
        assert!(row[2].parse::<f64>().is_ok(), "an incumbent: {text}");

        // Stats resolves the metrics sidecar from the events path.
        let mut buf = Vec::new();
        let code = run(
            Command::Stats {
                file: events_path,
                json: false,
                prom: false,
            },
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("suggest_latency_s"), "{text}");
        assert!(text.contains("counters"), "{text}");
    }

    #[test]
    fn tune_with_fault_profile_survives_and_counts_failures() {
        let dir = std::env::temp_dir().join("otune_cli_fault_test");
        std::fs::create_dir_all(&dir).unwrap();
        let events_path = dir.join("run.jsonl").to_string_lossy().into_owned();
        let mut buf = Vec::new();
        let code = run(
            Command::Tune {
                task: "wordcount".into(),
                beta: 0.5,
                budget: 10,
                seed: 1,
                no_safety: false,
                no_subspace: false,
                no_agd: true,
                out: None,
                events: Some(events_path.clone()),
                fault_profile: Some("oom:0.5,seed:3".into()),
                trace: None,
                corpus: None,
            },
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("fault injection"), "{text}");
        assert!(text.contains("oom_killed"), "no failure surfaced:\n{text}");
        assert!(text.contains("best:"), "still reports an incumbent");

        // The metrics sidecar counts the failures.
        let mut buf = Vec::new();
        let code = run(
            Command::Stats {
                file: events_path,
                json: false,
                prom: false,
            },
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("run_failures"), "{text}");
    }

    #[test]
    fn bad_fault_profile_is_a_soft_error() {
        let mut buf = Vec::new();
        let code = run(
            Command::Tune {
                task: "wordcount".into(),
                beta: 0.5,
                budget: 2,
                seed: 0,
                no_safety: false,
                no_subspace: false,
                no_agd: false,
                out: None,
                events: None,
                fault_profile: Some("oom:2.0".into()),
                trace: None,
                corpus: None,
            },
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 2);
        assert!(String::from_utf8(buf)
            .unwrap()
            .contains("bad --fault-profile"));
    }

    /// `--threads T` sizes every pool the run uses: the wave pool and
    /// each task's tuner pool, whose gauges the summary prints.
    #[test]
    fn tune_fleet_threads_bound_every_tuner_pool() {
        let gauges = |threads: usize| -> (f64, f64) {
            let mut buf = Vec::new();
            let code = run(
                Command::TuneFleet {
                    tasks: 3,
                    budget: 5,
                    shards: None,
                    threads: Some(threads),
                    seed: 4,
                    events: None,
                    trace: None,
                    prom: None,
                    corpus: None,
                },
                &mut buf,
            )
            .unwrap();
            assert_eq!(code, 0);
            let text = String::from_utf8(buf).unwrap();
            assert!(text.contains(&format!("{threads} thread(s)")), "{text}");
            let gauge = |name: &str| -> f64 {
                text.lines()
                    .find_map(|l| {
                        let mut cols = l.split_whitespace();
                        (cols.next() == Some(name)).then(|| cols.next().unwrap().parse().unwrap())
                    })
                    .unwrap_or_else(|| panic!("no {name} gauge in {text}"))
            };
            (gauge("pool_threads"), gauge("pool_parallel_maps"))
        };
        assert_eq!(gauges(1), (1.0, 0.0));
        assert_eq!(gauges(3).0, 3.0);
    }

    #[test]
    fn tune_fleet_runs_waves_and_surfaces_fleet_metrics() {
        let dir = std::env::temp_dir().join("otune_cli_fleet_test");
        std::fs::create_dir_all(&dir).unwrap();
        let events_path = dir.join("fleet.jsonl").to_string_lossy().into_owned();
        let trace_path = dir.join("fleet_trace.json").to_string_lossy().into_owned();
        let prom_path = dir.join("fleet.prom").to_string_lossy().into_owned();
        let mut buf = Vec::new();
        let code = run(
            Command::TuneFleet {
                tasks: 4,
                budget: 2,
                shards: Some(2),
                threads: Some(2),
                seed: 1,
                events: Some(events_path.clone()),
                trace: Some(trace_path.clone()),
                prom: Some(prom_path.clone()),
                corpus: None,
            },
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("suggestions/sec"), "{text}");
        assert!(text.contains("4/4 task(s) hold an incumbent"), "{text}");
        // The fleet metrics surface in the printed snapshot...
        assert!(text.contains("fleet_shards"), "{text}");
        assert!(text.contains("fleet_waves"), "{text}");
        assert!(text.contains("fleet_wave_s"), "{text}");
        // The trace side outputs exist and parse: Perfetto JSON with the
        // wave hierarchy, Prometheus text with the otune metric prefix.
        assert!(text.contains("latency attribution"), "{text}");
        let trace_json: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
        let trace_events = trace_json.get("traceEvents").unwrap().as_array().unwrap();
        assert!(!trace_events.is_empty());
        let names: Vec<&str> = trace_events
            .iter()
            .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
            .collect();
        assert!(names.contains(&"fleet_wave_suggest"), "{names:?}");
        assert!(!names.contains(&"shard"), "tasks sit right under the wave");
        assert!(names.contains(&"task"), "{names:?}");
        assert!(names.contains(&"suggest"), "{names:?}");
        let prom_text = std::fs::read_to_string(&prom_path).unwrap();
        assert!(
            prom_text.contains("# TYPE otune_fleet_waves counter"),
            "{prom_text}"
        );
        assert!(prom_text.contains("otune_fleet_wave_s"), "{prom_text}");
        // `otune top` summarizes the stream: per-task incumbents and the
        // wave latency percentiles recovered from SpanClosed events.
        let mut buf = Vec::new();
        let code = run(
            Command::Top {
                file: events_path.clone(),
                watch: None,
            },
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("fleet status"), "{text}");
        assert!(text.contains("-0"), "one task per workload suffix: {text}");
        assert!(text.contains("incumbent"), "{text}");
        assert!(text.contains("wave latency: p50"), "{text}");
        assert!(text.contains("failures:"), "{text}");
        // `otune trace` rebuilds the Perfetto file from the JSONL stream.
        let trace2_path = dir.join("fleet_trace2.json").to_string_lossy().into_owned();
        let mut buf = Vec::new();
        let code = run(
            Command::Trace {
                file: events_path.clone(),
                out: Some(trace2_path.clone()),
            },
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("latency attribution"), "{text}");
        let rebuilt: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&trace2_path).unwrap()).unwrap();
        assert!(!rebuilt
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
        // `otune stats --json` / `--prom` machine-readable modes.
        let mut buf = Vec::new();
        let code = run(
            Command::Stats {
                file: events_path.clone(),
                json: true,
                prom: false,
            },
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 0);
        let parsed: serde_json::Value =
            serde_json::from_str(&String::from_utf8(buf).unwrap()).unwrap();
        assert!(parsed.get("counters").is_some());
        let mut buf = Vec::new();
        let code = run(
            Command::Stats {
                file: events_path.clone(),
                json: false,
                prom: true,
            },
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 0);
        assert!(String::from_utf8(buf)
            .unwrap()
            .contains("# TYPE otune_fleet_requests counter"));
        // ...and again through `otune stats` on the sidecar.
        let mut buf = Vec::new();
        let code = run(
            Command::Stats {
                file: events_path,
                json: false,
                prom: false,
            },
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("fleet_requests"), "{text}");
        assert!(text.contains("fleet_reports"), "{text}");
    }

    #[test]
    fn corpus_build_stats_query_and_cold_start_tune() {
        let dir = std::env::temp_dir().join("otune_cli_corpus_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let corpus_path = dir.join("corpus.jsonl").to_string_lossy().into_owned();

        // Build: a small fleet seeds the corpus.
        let mut buf = Vec::new();
        let code = run(
            Command::Corpus {
                action: CorpusAction::Build {
                    tasks: 3,
                    budget: 3,
                    seed: 1,
                },
                file: corpus_path.clone(),
            },
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("corpus now holds"), "{text}");

        // Stats reports the record/task counts and what retrieval
        // standardizes over.
        let mut buf = Vec::new();
        let code = run(
            Command::Corpus {
                action: CorpusAction::Stats,
                file: corpus_path.clone(),
            },
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("3 task(s)"), "{text}");
        assert!(text.contains("meta-feature width: 75"), "{text}");
        assert!(text.contains("standardization stats: over"), "{text}");

        // Query retrieves neighbors for a workload's default-run features.
        let mut buf = Vec::new();
        let code = run(
            Command::Corpus {
                action: CorpusAction::Query {
                    task: "wordcount".into(),
                    k: 2,
                },
                file: corpus_path.clone(),
            },
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("top-2 neighbors"), "{text}");
        assert!(
            text.contains("blended bootstrap") || text.contains("fall back"),
            "{text}"
        );

        // A cold tune with --corpus bootstraps from retrieval and appends
        // its own outcomes back.
        let before = TuningCorpus::open(corpus_path.as_str()).unwrap().len();
        let mut buf = Vec::new();
        let code = run(
            Command::Tune {
                task: "terasort".into(),
                beta: 0.5,
                budget: 3,
                seed: 2,
                no_safety: false,
                no_subspace: false,
                no_agd: true,
                out: None,
                events: None,
                fault_profile: None,
                trace: None,
                corpus: Some(corpus_path.clone()),
            },
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("retrieval bootstrap"), "{text}");
        let after = TuningCorpus::open(corpus_path.as_str()).unwrap();
        // Calibration record + 3 tuned iterations land on top.
        assert_eq!(after.len(), before + 4, "{text}");
        assert_eq!(after.torn_lines(), 0);
    }

    #[test]
    fn events_on_missing_file_is_a_soft_error() {
        let mut buf = Vec::new();
        let code = run(
            Command::Events {
                file: "/nonexistent/x.jsonl".into(),
                task: None,
                kind: None,
            },
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 2);
        let code = run(
            Command::Stats {
                file: "/nonexistent/x.jsonl".into(),
                json: false,
                prom: false,
            },
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 2);
    }

    /// A crash-torn final line costs only that line: `otune events`
    /// replays the rest and reports the skip, as `otune top` does.
    #[test]
    fn events_skips_and_counts_a_torn_tail() {
        let dir = std::env::temp_dir().join("otune_cli_events_torn_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.jsonl").to_string_lossy().into_owned();
        let line = |seq: u64| {
            let kind = EventKind::AgdStep { accepted: true };
            let task = "wordcount".to_string();
            serde_json::to_string(&Event {
                task,
                seq,
                iteration: seq,
                kind,
            })
            .unwrap()
        };
        let torn = line(2);
        let text = format!("{}\n{}\n{}", line(0), line(1), &torn[..torn.len() / 2]);
        std::fs::write(&path, text).unwrap();
        let events = Command::Events {
            file: path.clone(),
            task: None,
            kind: None,
        };
        let top = Command::Top {
            file: path,
            watch: None,
        };
        for (command, want) in [
            (events, "2 event(s) shown (2 total), 1 torn line(s) skipped"),
            (top, "2 event(s), 1 torn line(s) skipped"),
        ] {
            let mut buf = Vec::new();
            assert_eq!(run(command, &mut buf).unwrap(), 0);
            let text = String::from_utf8(buf).unwrap();
            assert!(text.contains(want), "{text}");
        }
    }

    #[test]
    fn importance_prints_top_ten() {
        let mut buf = Vec::new();
        let code = run(
            Command::Importance {
                task: "sort".into(),
                samples: 60,
            },
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 0);
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(
            text.lines()
                .filter(|l| l.trim_start().starts_with(char::is_numeric))
                .count(),
            10
        );
    }

    #[test]
    fn help_prints_usage() {
        let mut buf = Vec::new();
        assert_eq!(run(Command::Help, &mut buf).unwrap(), 0);
        assert!(String::from_utf8(buf).unwrap().contains("USAGE"));
    }
}
