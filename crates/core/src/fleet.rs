//! Fleet execution layer: batched waves over the sharded task map.
//!
//! The deployed service (§6) tunes tens of thousands of periodic tasks per
//! day; driving them one `request_config`/`report_result` at a time leaves
//! the controller single-threaded and re-does cross-task work per task.
//! This module adds the fleet hot path:
//!
//! * **Sharding** — the task map is hashed into [`FleetOptions::shards`]
//!   disjoint shards ([`super::controller`]). A batched wave groups its
//!   requests by shard and fans the groups across [`FleetOptions::pool`],
//!   one worker per shard, so no two workers ever touch the same task.
//! * **Batched APIs** — [`OnlineTuneController::request_configs`] and
//!   [`OnlineTuneController::report_results`] process a whole wave of
//!   per-task suggest/observe work and return per-request results in input
//!   order.
//!
//! **Determinism invariant.** Each task's tuner owns its RNG stream and
//! history; a wave only changes *which worker* runs a task's step, never
//! the step itself. Within a wave, each task's requests are processed in
//! input order. A task's suggestion trace is therefore bitwise identical
//! whether it is driven sequentially or through waves, at any
//! `OTUNE_SHARDS` and any `OTUNE_THREADS`, and regardless of how tasks are
//! interleaved across waves. The one scoped exception: warm-start
//! injection reads *other* tasks' histories (from their tuners) and
//! meta-features, so traces of tasks using meta-feature transfer depend
//! (as they always have) on the order in which other tasks' results
//! arrive. Waves apply injections in a deterministic post-wave phase in
//! request order.

use crate::controller::{ControllerError, OnlineTuneController, RunOutcome, TaskHandle};
use otune_pool::Pool;
use otune_space::Configuration;
use otune_telemetry::{metric, trace_key};

/// Environment variable selecting the shard count.
pub const SHARDS_ENV: &str = "OTUNE_SHARDS";

/// Default shard count when `OTUNE_SHARDS` is unset.
const DEFAULT_SHARDS: usize = 8;

/// Fleet-level controller options.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Shards the task map is hashed into (≥ 1). Only affects how batched
    /// waves parallelize, never any suggestion.
    pub shards: usize,
    /// Pool fanning wave shard-groups across workers.
    pub pool: Pool,
}

impl FleetOptions {
    /// Options from the environment: `OTUNE_SHARDS` for the shard count,
    /// `OTUNE_THREADS` (via [`Pool::from_env`]) for the wave pool.
    pub fn from_env() -> Self {
        let shards = std::env::var(SHARDS_ENV)
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(DEFAULT_SHARDS);
        FleetOptions {
            shards,
            pool: Pool::from_env(),
        }
    }
}

impl Default for FleetOptions {
    fn default() -> Self {
        Self::from_env()
    }
}

/// One configuration request in a batched wave.
#[derive(Debug, Clone)]
pub struct FleetRequest<'a> {
    /// The task to suggest for.
    pub handle: &'a TaskHandle,
    /// Execution context (§4.3) for this periodic run.
    pub context: &'a [f64],
}

/// One result report in a batched wave.
#[derive(Debug, Clone)]
pub struct FleetReport<'a> {
    /// The task that executed.
    pub handle: &'a TaskHandle,
    /// The configuration that ran (must match the pending suggestion).
    pub config: Configuration,
    /// Observed runtime in seconds.
    pub runtime_s: f64,
    /// Observed resource cost.
    pub resource: f64,
    /// Execution context the run was suggested under.
    pub context: &'a [f64],
    /// Event-log meta-features; the first arrival triggers warm-start
    /// injection.
    pub meta_features: Option<Vec<f64>>,
}

impl OnlineTuneController {
    /// Group wave items by shard: `(shard index, input indices)` with each
    /// group preserving input order, so per-task request order is exactly
    /// the input order.
    fn shard_groups<'h>(
        &self,
        handles: impl Iterator<Item = &'h TaskHandle>,
    ) -> Vec<(usize, Vec<usize>)> {
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, h) in handles.enumerate() {
            groups[self.shard_of(h)].push(i);
        }
        groups
            .into_iter()
            .enumerate()
            .filter(|(_, g)| !g.is_empty())
            .collect()
    }

    /// Step 1, batched (Figure 1): suggest a configuration for every
    /// request in the wave. Results come back in input order; each task's
    /// trace is bitwise identical to driving it through
    /// [`OnlineTuneController::request_config`].
    pub fn request_configs(
        &mut self,
        requests: &[FleetRequest<'_>],
    ) -> Vec<Result<Configuration, ControllerError>> {
        let span = self.telemetry.span(metric::FLEET_WAVE_S);
        let wave_trace = self.telemetry.trace_span("fleet_wave_suggest");
        let ctx = self.telemetry.trace_ctx();
        self.telemetry.incr(metric::FLEET_WAVES);
        self.telemetry
            .add(metric::FLEET_REQUESTS, requests.len() as u64);
        let groups = self.shard_groups(requests.iter().map(|r| r.handle));
        let pool = self.fleet.pool.clone();
        let this = &*self;
        let per_group: Vec<Vec<(usize, Result<Configuration, ControllerError>)>> =
            pool.map(&groups, |_, (shard_idx, idxs)| {
                let _adopted = this.telemetry.trace_adopt(ctx.clone());
                let _shard_trace = this.telemetry.trace_span_keyed("shard", *shard_idx as u64);
                let mut shard = this.lock_shard(*shard_idx);
                idxs.iter()
                    .map(|&i| {
                        let req = &requests[i];
                        let _task_trace = this
                            .telemetry
                            .trace_span_keyed("task", trace_key(req.handle.as_str()));
                        let res = match shard.get_mut(req.handle) {
                            Some(entry) => entry
                                .tuner
                                .suggest(req.context)
                                .map_err(ControllerError::Tuner),
                            None => Err(ControllerError::UnknownTask),
                        };
                        (i, res)
                    })
                    .collect()
            });
        wave_trace.finish();
        drop(span);
        scatter(requests.len(), per_group)
    }

    /// Step 2, batched (Figure 1): absorb a wave of completed execution
    /// results. The per-task work (observe, corpus append) fans across the
    /// pool; warm-start injections then run in a deterministic sequential
    /// phase in input order. Results come back in input order.
    pub fn report_results(
        &mut self,
        reports: &[FleetReport<'_>],
    ) -> Vec<Result<(), ControllerError>> {
        let span = self.telemetry.span(metric::FLEET_WAVE_S);
        let wave_trace = self.telemetry.trace_span("fleet_wave_report");
        let ctx = self.telemetry.trace_ctx();
        self.telemetry.incr(metric::FLEET_WAVES);
        self.telemetry
            .add(metric::FLEET_REPORTS, reports.len() as u64);
        let groups = self.shard_groups(reports.iter().map(|r| r.handle));
        let pool = self.fleet.pool.clone();
        let this = &*self;
        type Absorbed = Vec<(usize, Result<Option<Vec<f64>>, ControllerError>)>;
        let per_group: Vec<Absorbed> = pool.map(&groups, |_, (shard_idx, idxs)| {
            let _adopted = this.telemetry.trace_adopt(ctx.clone());
            let _shard_trace = this.telemetry.trace_span_keyed("shard", *shard_idx as u64);
            let mut shard = this.lock_shard(*shard_idx);
            idxs.iter()
                .map(|&i| {
                    let rep = &reports[i];
                    let _task_trace = this
                        .telemetry
                        .trace_span_keyed("task", trace_key(rep.handle.as_str()));
                    let res = match shard.get_mut(rep.handle) {
                        Some(entry) => Self::absorb_report(
                            &this.repository,
                            &this.shared_meta,
                            entry,
                            rep,
                            RunOutcome::Completed,
                        ),
                        None => Err(ControllerError::UnknownTask),
                    };
                    (i, res)
                })
                .collect()
        });
        wave_trace.finish();
        drop(span);
        let absorbed = scatter(reports.len(), per_group);
        // Deterministic post-wave phase: refit bookkeeping and warm-start
        // injections in input order.
        absorbed
            .into_iter()
            .enumerate()
            .map(|(i, res)| {
                res.map(|inject| {
                    self.sim.reports_since_refit += 1;
                    if let Some(features) = inject {
                        self.maybe_inject(reports[i].handle, &features);
                    }
                })
            })
            .collect()
    }
}

/// Scatter `(input index, result)` pairs back into input order.
fn scatter<R>(n: usize, per_group: Vec<Vec<(usize, R)>>) -> Vec<R> {
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    for group in per_group {
        for (i, r) in group {
            out[i] = Some(r);
        }
    }
    out.into_iter()
        .map(|r| r.expect("every wave item produces a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository::DataRepository;
    use crate::tuner::TunerOptions;
    use otune_space::{ConfigSpace, Parameter};
    use std::sync::Arc;

    fn toy_space() -> ConfigSpace {
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

    fn controller(shards: usize, threads: usize) -> OnlineTuneController {
        OnlineTuneController::with_options(
            Arc::new(DataRepository::new()),
            FleetOptions {
                shards,
                pool: Pool::new(threads),
            },
        )
    }

    #[test]
    fn batched_wave_matches_sequential_driving() {
        let n_tasks = 6;
        let budget = 4;
        let opts = TunerOptions {
            budget,
            ..Default::default()
        };
        // Sequentially driven reference fleet.
        let mut seq = controller(1, 1);
        let seq_handles: Vec<TaskHandle> = (0..n_tasks)
            .map(|i| seq.create_task(&format!("task-{i}"), toy_space(), opts.clone()))
            .collect();
        let mut seq_traces: Vec<Vec<Configuration>> = vec![Vec::new(); n_tasks];
        for _ in 0..budget {
            for (t, h) in seq_handles.iter().enumerate() {
                let cfg = seq.request_config(h, &[]).unwrap();
                let (rt, r) = toy_eval(&cfg);
                seq.report_result(h, cfg.clone(), rt, r, &[], None).unwrap();
                seq_traces[t].push(cfg);
            }
        }
        // Wave-driven fleet, sharded and parallel.
        let mut fleet = controller(4, 4);
        let handles: Vec<TaskHandle> = (0..n_tasks)
            .map(|i| fleet.create_task(&format!("task-{i}"), toy_space(), opts.clone()))
            .collect();
        let mut traces: Vec<Vec<Configuration>> = vec![Vec::new(); n_tasks];
        for _ in 0..budget {
            let requests: Vec<FleetRequest> = handles
                .iter()
                .map(|h| FleetRequest {
                    handle: h,
                    context: &[],
                })
                .collect();
            let configs = fleet.request_configs(&requests);
            let reports: Vec<FleetReport> = configs
                .iter()
                .zip(&handles)
                .map(|(cfg, h)| {
                    let cfg = cfg.as_ref().unwrap().clone();
                    let (rt, r) = toy_eval(&cfg);
                    FleetReport {
                        handle: h,
                        config: cfg,
                        runtime_s: rt,
                        resource: r,
                        context: &[],
                        meta_features: None,
                    }
                })
                .collect();
            for (t, rep) in reports.iter().enumerate() {
                traces[t].push(rep.config.clone());
            }
            for res in fleet.report_results(&reports) {
                res.unwrap();
            }
        }
        assert_eq!(traces, seq_traces);
    }

    /// Run a cold-start fleet: `n_seed` corpus-feeding source tasks driven
    /// to completion, then `n_cold` tasks registered with pre-known
    /// features and driven through batched waves. Returns the cold tasks'
    /// suggestion traces.
    fn cold_start_traces(shards: usize, threads: usize) -> Vec<Vec<Configuration>> {
        let (n_seed, n_cold, budget) = (4, 6, 3);
        let opts = TunerOptions {
            budget,
            ..Default::default()
        };
        let mut fleet = controller(shards, threads);
        fleet.set_corpus(otune_meta::TuningCorpus::in_memory());
        for s in 0..n_seed {
            let h = fleet.create_task(&format!("seed-{s}"), toy_space(), opts.clone());
            for i in 0..budget {
                let cfg = fleet.request_config(&h, &[]).unwrap();
                let (rt, r) = toy_eval(&cfg);
                let f = if i == 0 {
                    Some(vec![s as f64, 2.0 * s as f64])
                } else {
                    None
                };
                fleet.report_result(&h, cfg, rt, r, &[], f).unwrap();
            }
        }
        let handles: Vec<TaskHandle> = (0..n_cold)
            .map(|c| {
                fleet.create_task_with_features(
                    &format!("cold-{c}"),
                    toy_space(),
                    opts.clone(),
                    vec![0.3 * c as f64, 0.6 * c as f64],
                )
            })
            .collect();
        let mut traces: Vec<Vec<Configuration>> = vec![Vec::new(); n_cold];
        for _ in 0..budget {
            let requests: Vec<FleetRequest> = handles
                .iter()
                .map(|h| FleetRequest {
                    handle: h,
                    context: &[],
                })
                .collect();
            let configs = fleet.request_configs(&requests);
            let reports: Vec<FleetReport> = configs
                .iter()
                .zip(&handles)
                .map(|(cfg, h)| {
                    let cfg = cfg.as_ref().unwrap().clone();
                    let (rt, r) = toy_eval(&cfg);
                    FleetReport {
                        handle: h,
                        config: cfg,
                        runtime_s: rt,
                        resource: r,
                        context: &[],
                        meta_features: None,
                    }
                })
                .collect();
            for (t, rep) in reports.iter().enumerate() {
                traces[t].push(rep.config.clone());
            }
            for res in fleet.report_results(&reports) {
                res.unwrap();
            }
        }
        traces
    }

    #[test]
    fn retrieval_bootstrap_is_identical_at_any_shard_and_thread_count() {
        // k-NN retrieval reads a corpus built by interleaved shard workers;
        // the bootstrap (and every downstream suggestion) must not depend
        // on OTUNE_SHARDS / OTUNE_THREADS.
        let reference = cold_start_traces(1, 1);
        for (shards, threads) in [(2, 2), (4, 4), (8, 3)] {
            assert_eq!(
                cold_start_traces(shards, threads),
                reference,
                "trace diverged at shards={shards} threads={threads}"
            );
        }
    }

    #[test]
    fn wave_results_come_back_in_input_order() {
        let mut fleet = controller(4, 2);
        let ha = fleet.create_task(
            "a",
            toy_space(),
            TunerOptions {
                budget: 3,
                ..Default::default()
            },
        );
        let bogus = TaskHandle("ghost".into());
        let requests = vec![
            FleetRequest {
                handle: &bogus,
                context: &[],
            },
            FleetRequest {
                handle: &ha,
                context: &[],
            },
        ];
        let out = fleet.request_configs(&requests);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], Err(ControllerError::UnknownTask));
        assert!(out[1].is_ok());
    }

    #[test]
    fn duplicate_task_in_one_wave_hits_protocol_error() {
        // Two requests for the same task in one wave: the second must fail
        // deterministically (a suggestion is already pending), exactly as
        // it would when driven sequentially.
        let mut fleet = controller(2, 2);
        let h = fleet.create_task(
            "dup",
            toy_space(),
            TunerOptions {
                budget: 3,
                ..Default::default()
            },
        );
        let requests = vec![
            FleetRequest {
                handle: &h,
                context: &[],
            },
            FleetRequest {
                handle: &h,
                context: &[],
            },
        ];
        let out = fleet.request_configs(&requests);
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(ControllerError::Tuner(_))));
    }

    #[test]
    fn fleet_telemetry_counts_waves() {
        let (tm, _sink) = otune_telemetry::Telemetry::ring(64);
        let mut fleet = controller(2, 1);
        fleet.set_telemetry(tm);
        let h = fleet.create_task(
            "t",
            toy_space(),
            TunerOptions {
                budget: 2,
                ..Default::default()
            },
        );
        let requests = vec![FleetRequest {
            handle: &h,
            context: &[],
        }];
        let cfg = fleet.request_configs(&requests)[0].clone().unwrap();
        let (rt, r) = toy_eval(&cfg);
        let reports = vec![FleetReport {
            handle: &h,
            config: cfg,
            runtime_s: rt,
            resource: r,
            context: &[],
            meta_features: None,
        }];
        fleet.report_results(&reports)[0].clone().unwrap();
        let snap = fleet.telemetry().snapshot().unwrap();
        assert_eq!(snap.counters[metric::FLEET_WAVES], 2);
        assert_eq!(snap.counters[metric::FLEET_REQUESTS], 1);
        assert_eq!(snap.counters[metric::FLEET_REPORTS], 1);
        assert_eq!(snap.gauges[metric::FLEET_SHARDS], 2.0);
        assert_eq!(snap.gauges[metric::FLEET_TASKS], 1.0);
        assert_eq!(snap.histograms[metric::FLEET_WAVE_S].count, 2);
    }
}
