//! The efficient & safe configuration generator (Algorithm 2).
//!
//! Each call to [`ConfigGenerator::suggest`] performs one iteration of the
//! paper's generation procedure:
//!
//! 1. warm-start / low-discrepancy initial design while history is scarce;
//! 2. otherwise fit surrogates for the objective and the runtime on the
//!    runhistory (plus workload context);
//! 3. every `N_AGD` iterations, propose by approximate gradient descent
//!    from the incumbent (§4.3);
//! 4. otherwise evolve the sub-space from the success/failure record
//!    (§4.1), intersect it with the safe region (§4.2), and maximize EIC
//!    over the result.

use crate::tuner::TunerOptions;
use otune_bo::{
    best_observation, maximize_eic_with, AdaptiveSubspace, Agd, CandidateParams, EicObjective,
    Observation, Predictor, SafeRegion, SubspaceParams, SurrogateStore,
};
use otune_space::{ConfigSpace, Configuration, Subspace};
use otune_telemetry::{metric, EventKind, ResizeDirection, SuggestionKind, Telemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Refresh the fANOVA importance ranking every this many observations.
const FANOVA_PERIOD: usize = 5;

/// Safe-region pessimism γ of Eq. 8 (`u(x) = μ(x) + γσ(x)`).
const GAMMA: f64 = 1.0;

/// One suggested configuration with provenance.
#[derive(Debug, Clone)]
pub struct Suggestion {
    /// The configuration to evaluate next.
    pub config: Configuration,
    /// Which mechanism produced it.
    pub source: SuggestionKind,
    /// EIC value at the choice (0 for non-BO sources), used by the
    /// stopping criterion.
    pub eic: f64,
    /// Whether the choice came from inside the GP safe region.
    pub from_safe_region: bool,
}

/// The stateful configuration generator for one tuning task.
///
/// The generator holds no options of its own: every call takes the
/// [`TunerOptions`] it was built with.
pub struct ConfigGenerator {
    space: ConfigSpace,
    /// Persistent fitted surrogates, reused while the history only grows.
    store: SurrogateStore,
    subspace_mgr: AdaptiveSubspace,
    resource_fn: Arc<dyn Fn(&Configuration) -> f64 + Send + Sync>,
    rng: StdRng,
    /// History length already fed into the success/failure counters.
    processed: usize,
    /// Best feasible objective seen while processing (drives "success").
    running_best: f64,
    /// Iteration counter (suggestions handed out).
    iteration: usize,
    /// Observability handle (disabled by default).
    telemetry: Telemetry,
}

impl ConfigGenerator {
    /// Create a generator for a task tuned under `opts`. `expert_ranking`
    /// orders parameters by prior importance (most important first);
    /// `resource_fn` is the analytic white-box `R(x)`.
    pub fn new(
        space: ConfigSpace,
        opts: &TunerOptions,
        expert_ranking: Vec<usize>,
        resource_fn: Arc<dyn Fn(&Configuration) -> f64 + Send + Sync>,
    ) -> Self {
        let subspace = opts
            .subspace
            .unwrap_or_else(|| SubspaceParams::paper_defaults(space.len()));
        let subspace_mgr = AdaptiveSubspace::new(subspace, expert_ranking);
        let rng = StdRng::seed_from_u64(opts.seed ^ 0xa5a5_5a5a_dead_beef);
        ConfigGenerator {
            space,
            store: SurrogateStore::new(opts.incremental),
            subspace_mgr,
            resource_fn,
            rng,
            processed: 0,
            running_best: f64::INFINITY,
            iteration: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry handle; suggestions emit `SurrogateFitted`,
    /// `AgdStep`, and `SubspaceResized` events through it.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Current sub-space size `K`.
    pub fn subspace_k(&self) -> usize {
        self.subspace_mgr.k()
    }

    /// Current importance ranking (most important first).
    pub fn ranking(&self) -> &[usize] {
        self.subspace_mgr.ranking()
    }

    /// Whether the *next* `suggest` call will still serve the initial
    /// design (warm-start, retrieval, or low-discrepancy probes) rather
    /// than fit surrogates. Lets callers skip preparing expensive inputs
    /// — e.g. the meta ensemble — that the burn-in phase ignores.
    pub fn in_initial_design(&self, opts: &TunerOptions, history_len: usize) -> bool {
        self.iteration < opts.n_init.max(opts.warm_configs.len()) || history_len < 2
    }

    /// Suggest the next configuration (Algorithm 2).
    ///
    /// `opts` are the options the generator was built with; their
    /// `warm_configs` are the meta-learned initial design (§5.2).
    /// `history` is the full runhistory; `context` the current workload
    /// features (data size or calendar features — must match the widths in
    /// history); `meta_objective` an optional ensemble surrogate replacing
    /// the plain objective GP (§5.2).
    pub fn suggest(
        &mut self,
        opts: &TunerOptions,
        history: &[Observation],
        context: &[f64],
        meta_objective: Option<&dyn Predictor>,
    ) -> Suggestion {
        self.ingest(opts, history);
        let i = self.iteration;
        self.iteration += 1;
        let warm_configs = &opts.warm_configs;

        // --- Initial design (Algorithm 1, line 1) ---
        if i < warm_configs.len() {
            return Suggestion {
                config: warm_configs[i].clone(),
                source: SuggestionKind::WarmStart,
                eic: 0.0,
                from_safe_region: true,
            };
        }
        let init_total = opts.n_init.max(warm_configs.len());
        if i < init_total || history.len() < 2 {
            let probe_idx = i.saturating_sub(warm_configs.len());
            // Corpus retrieval replaces burn-in points 0..k when the
            // retrieval index was confident; later probes (and the whole
            // design when retrieval is empty or fell back) keep their
            // pre-retrieval low-discrepancy indices unchanged.
            if let Some(config) = opts.retrieval_configs.get(probe_idx) {
                return Suggestion {
                    config: config.clone(),
                    source: SuggestionKind::Retrieval,
                    eic: 0.0,
                    from_safe_region: true,
                };
            }
            return Suggestion {
                config: self
                    .space
                    .low_discrepancy_nth(probe_idx, opts.seed ^ 0x1234),
                source: SuggestionKind::InitialDesign,
                eic: 0.0,
                from_safe_region: true,
            };
        }

        // --- Surrogates (Algorithm 2, line 1) ---
        // Runtime and objective are modeled in log space: both metrics span
        // orders of magnitude across the configuration space, and the GP's
        // standardization alone cannot keep the basin around the optimum
        // resolvable next to spill blow-ups.
        let incumbent =
            best_observation(history, opts.t_max, opts.r_max).expect("history is non-empty");
        let log_history: Vec<Observation> = history
            .iter()
            .map(|o| Observation {
                objective: o.objective.max(1e-9).ln(),
                runtime: o.runtime.max(1e-9).ln(),
                ..o.clone()
            })
            .collect();
        // The store reuses last iteration's fits whenever the (log-space)
        // history only grew: new rows are absorbed by rank-one factor
        // updates, and full hyperparameter searches run only on the
        // store's re-search schedule. Editing history — or a transform
        // change rewriting an old target — invalidates via fingerprints.
        let fitted = self.store.prepare(
            &self.space,
            &log_history,
            opts.seed,
            &self.telemetry,
            &opts.pool,
        );
        let Ok((runtime_gp, objective_gp)) = fitted else {
            // Degenerate history (e.g. identical rows) — explore.
            self.store.clear();
            self.telemetry.incr(metric::FALLBACK_SUGGESTIONS);
            return Suggestion {
                config: self.space.sample(&mut self.rng),
                source: SuggestionKind::Fallback,
                eic: 0.0,
                from_safe_region: false,
            };
        };
        for model in ["runtime_gp", "objective_gp"] {
            self.telemetry.emit(
                i as u64,
                EventKind::SurrogateFitted {
                    model: model.to_string(),
                    n_obs: history.len(),
                },
            );
        }

        // --- Constraints shared by AGD and EIC (§4.2) ---
        // The safe region's threshold moves to log space along with the
        // surrogates. With safety disabled (the Figure 8 "vanilla BO" arm)
        // there is no region, and EIC falls back to plain EI, matching how
        // the paper's ablation ignores the constraint.
        let safe_region = match (opts.enable_safety, opts.t_max) {
            (true, Some(t_max)) => Some(SafeRegion::new(&runtime_gp, t_max.max(1e-9).ln(), GAMMA)),
            _ => None,
        };
        let resource_fn = self.resource_fn.clone();
        let within_r_max = opts
            .r_max
            .map(|r| move |c: &Configuration| resource_fn(c) <= r);
        let within_r_max: Option<&dyn Fn(&Configuration) -> bool> = within_r_max
            .as_ref()
            .map(|f| f as &dyn Fn(&Configuration) -> bool);

        // --- AGD every N_AGD iterations (Algorithm 2, lines 2-4) ---
        // §4.3 applies AGD "when observations D are sufficient to
        // approximate the objective function": with a thin history the
        // surrogate gradient is noise and the step wastes an online run.
        if opts.n_agd > 0 && history.len() >= 12 && (i + 1).is_multiple_of(opts.n_agd) {
            let _trace = self.telemetry.trace_span("agd");
            let agd = Agd {
                beta: opts.beta,
                eta: 0.04,
                log_runtime: true,
                ..Agd::default()
            };
            let proposal = agd.propose(
                &self.space,
                &incumbent.config,
                context,
                &runtime_gp,
                &*self.resource_fn.clone(),
            );
            let mut x = self.space.encode(&proposal);
            x.extend_from_slice(context);
            // AGD proposals are online executions too: they must clear the
            // same safe region as BO suggestions (§4.2), else they would be
            // the one unguarded path to an SLA-violating run.
            let safe = safe_region.as_ref().is_none_or(|r| r.is_safe(&x));
            let within_r = within_r_max.is_none_or(|f| f(&proposal));
            // A gradient step must also *predict* descent — if the
            // surrogate thinks the step lands above the incumbent, the
            // gradient was noise and BO spends the iteration instead.
            let predicted_descent =
                objective_gp.predict_mean(&x) < incumbent.objective.max(1e-9).ln();
            let accepted = safe && within_r && predicted_descent && proposal != incumbent.config;
            self.telemetry
                .emit(i as u64, EventKind::AgdStep { accepted });
            if accepted {
                return Suggestion {
                    config: proposal,
                    source: SuggestionKind::Agd,
                    eic: 0.0,
                    from_safe_region: true,
                };
            }
            // Zero gradient or unsafe proposal: fall through to BO.
        }

        // --- Sub-space (Algorithm 2, line 6) ---
        let subspace_span = self.telemetry.trace_span("subspace");
        let sub = if opts.enable_subspace {
            self.subspace_mgr
                .build(&self.space, incumbent.config.clone())
        } else {
            Subspace::full(&self.space, incumbent.config.clone())
                .expect("full subspace is always valid")
        };
        subspace_span.finish();
        self.telemetry
            .gauge(metric::SUBSPACE_K, self.subspace_mgr.k() as f64);

        // --- Safe region ∩ sub-space, EIC maximization (lines 7-8) ---
        let objective: &dyn Predictor = match meta_objective {
            Some(m) => m,
            None => &*objective_gp,
        };
        let eic_obj = EicObjective {
            objective_gp: objective,
            // In log space, EI directly measures expected *relative*
            // improvement — which also matches the paper's "EI below 10%"
            // stopping rule.
            y_best: incumbent.objective.max(1e-9).ln(),
            // The EIC probability factor reads the safe region's
            // surrogate and threshold.
            constraints: safe_region
                .iter()
                .map(|r| (r.surrogate(), r.threshold()))
                .collect(),
        };
        let choice = maximize_eic_with(
            &sub,
            context,
            &eic_obj,
            safe_region.as_slice(),
            within_r_max,
            Some(&incumbent.config),
            CandidateParams::default(),
            &mut self.rng,
            &self.telemetry,
            &opts.pool,
        );
        Suggestion {
            config: choice.config,
            source: SuggestionKind::Bo,
            eic: choice.eic,
            from_safe_region: choice.from_safe_region,
        }
    }

    /// Feed new observations into the success/failure counters and the
    /// fANOVA ranking refresh.
    fn ingest(&mut self, opts: &TunerOptions, history: &[Observation]) {
        while self.processed < history.len() {
            let o = &history[self.processed];
            self.processed += 1;
            let feasible = o.is_feasible(opts.t_max, opts.r_max);
            let success = feasible && o.objective < self.running_best;
            if success {
                self.running_best = o.objective;
            }
            // Counters only matter once BO is active.
            if self.processed > opts.n_init {
                let k_before = self.subspace_mgr.k();
                let k_after = self.subspace_mgr.record(success);
                if k_after != k_before {
                    let direction = if k_after > k_before {
                        ResizeDirection::Grow
                    } else {
                        ResizeDirection::Shrink
                    };
                    self.telemetry.emit(
                        self.iteration as u64,
                        EventKind::SubspaceResized {
                            k: k_after,
                            direction,
                        },
                    );
                }
            }
            if self.processed >= 2 * FANOVA_PERIOD && self.processed.is_multiple_of(FANOVA_PERIOD) {
                let _trace = self.telemetry.trace_span("fanova_refresh");
                let x: Vec<Vec<f64>> = history[..self.processed]
                    .iter()
                    .map(|o| self.space.encode(&o.config))
                    .collect();
                let y: Vec<f64> = history[..self.processed]
                    .iter()
                    .map(|o| o.objective)
                    .collect();
                self.subspace_mgr
                    .refresh_ranking(&x, &y, opts.seed, &opts.pool);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otune_space::{ParamValue, Parameter};

    fn toy_space() -> ConfigSpace {
        ConfigSpace::new(vec![
            Parameter::int("n", 1, 50, 10),
            Parameter::int("m", 1, 32, 8),
            Parameter::float("frac", 0.1, 0.9, 0.5),
            Parameter::boolean("flag", false),
        ])
    }

    fn toy_resource() -> Arc<dyn Fn(&Configuration) -> f64 + Send + Sync> {
        Arc::new(|c: &Configuration| {
            c[0].as_int().unwrap() as f64 * (1.0 + 0.5 * c[1].as_int().unwrap() as f64)
        })
    }

    /// Toy runtime: decreasing in n, penalized when m is small.
    fn toy_runtime(c: &Configuration) -> f64 {
        let n = c[0].as_int().unwrap() as f64;
        let m = c[1].as_int().unwrap() as f64;
        400.0 / n + 30.0 / m + 10.0
    }

    fn generator(opts: &TunerOptions) -> ConfigGenerator {
        ConfigGenerator::new(toy_space(), opts, vec![0, 1, 2, 3], toy_resource())
    }

    fn evaluate(space: &ConfigSpace, cfg: &Configuration, beta: f64) -> Observation {
        let _ = space;
        let rt = toy_runtime(cfg);
        let r = toy_resource()(cfg);
        Observation {
            failed: false,
            config: cfg.clone(),
            objective: rt.powf(beta) * r.powf(1.0 - beta),
            runtime: rt,
            resource: r,
            context: vec![],
        }
    }

    #[test]
    fn initial_design_precedes_bo() {
        let opts = TunerOptions {
            n_init: 3,
            ..Default::default()
        };
        let mut g = generator(&opts);
        let mut history = Vec::new();
        for i in 0..3 {
            let s = g.suggest(&opts, &history, &[], None);
            assert_eq!(s.source, SuggestionKind::InitialDesign, "iter {i}");
            history.push(evaluate(&toy_space(), &s.config, 0.5));
        }
        let s = g.suggest(&opts, &history, &[], None);
        assert!(
            matches!(s.source, SuggestionKind::Bo | SuggestionKind::Agd),
            "BO starts after init: {:?}",
            s.source
        );
    }

    #[test]
    fn warm_configs_are_used_first_and_verbatim() {
        let space = toy_space();
        let warm = vec![
            space
                .configuration(vec![
                    ParamValue::Int(5),
                    ParamValue::Int(4),
                    ParamValue::Float(0.3),
                    ParamValue::Bool(true),
                ])
                .unwrap(),
            space
                .configuration(vec![
                    ParamValue::Int(25),
                    ParamValue::Int(16),
                    ParamValue::Float(0.7),
                    ParamValue::Bool(false),
                ])
                .unwrap(),
        ];
        let opts = TunerOptions {
            warm_configs: warm.clone(),
            ..Default::default()
        };
        let mut g = generator(&opts);
        let mut history = Vec::new();
        for w in &warm {
            let s = g.suggest(&opts, &history, &[], None);
            assert_eq!(s.source, SuggestionKind::WarmStart);
            assert_eq!(&s.config, w);
            history.push(evaluate(&space, &s.config, 0.5));
        }
    }

    #[test]
    fn retrieval_replaces_burn_in_prefix_only() {
        let space = toy_space();
        let retrieval = vec![
            space
                .configuration(vec![
                    ParamValue::Int(7),
                    ParamValue::Int(3),
                    ParamValue::Float(0.2),
                    ParamValue::Bool(true),
                ])
                .unwrap(),
            space
                .configuration(vec![
                    ParamValue::Int(30),
                    ParamValue::Int(20),
                    ParamValue::Float(0.8),
                    ParamValue::Bool(false),
                ])
                .unwrap(),
        ];
        let opts = TunerOptions {
            n_init: 3,
            retrieval_configs: retrieval.clone(),
            ..Default::default()
        };
        let plain_opts = TunerOptions::default();
        let mut g = generator(&opts);
        let mut plain = generator(&plain_opts);
        let mut history = Vec::new();
        // Probes 0 and 1 serve the retrieved configs verbatim.
        for r in &retrieval {
            let s = g.suggest(&opts, &history, &[], None);
            assert_eq!(s.source, SuggestionKind::Retrieval);
            assert_eq!(&s.config, r);
            history.push(evaluate(&toy_space(), &s.config, 0.5));
        }
        // Probe 2 falls through to the *same* low-discrepancy point the
        // retrieval-free generator serves at index 2.
        let mut plain_history = Vec::new();
        for _ in 0..2 {
            let s = plain.suggest(&plain_opts, &plain_history, &[], None);
            plain_history.push(evaluate(&toy_space(), &s.config, 0.5));
        }
        let s = g.suggest(&opts, &history, &[], None);
        let p = plain.suggest(&plain_opts, &plain_history, &[], None);
        assert_eq!(s.source, SuggestionKind::InitialDesign);
        assert_eq!(s.config, p.config, "unserved probe keeps its index");
    }

    #[test]
    fn empty_retrieval_is_bitwise_identical() {
        let space = toy_space();
        let opts_a = TunerOptions {
            retrieval_configs: Vec::new(),
            ..Default::default()
        };
        let opts_b = TunerOptions::default();
        let mut a = generator(&opts_a);
        let mut b = generator(&opts_b);
        let mut ha = Vec::new();
        let mut hb = Vec::new();
        for _ in 0..10 {
            let sa = a.suggest(&opts_a, &ha, &[], None);
            let sb = b.suggest(&opts_b, &hb, &[], None);
            let bits = |c: &Configuration| -> Vec<u64> {
                space.encode(c).iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&sa.config), bits(&sb.config));
            ha.push(evaluate(&space, &sa.config, 0.5));
            hb.push(evaluate(&space, &sb.config, 0.5));
        }
    }

    #[test]
    fn agd_fires_on_schedule_once_history_suffices() {
        let opts = TunerOptions {
            n_init: 3,
            n_agd: 5,
            // The assertion below is stream-dependent: whether the gradient
            // step predicts descent at exactly iteration 14/19 hinges on
            // which BO candidates the RNG happened to draw earlier. This
            // seed picks a stream (under the vendored xoshiro-based StdRng)
            // where the schedule is exercised rather than vetoed; retune it
            // with the ignored `scan_agd_seeds` helper below if suggestion
            // streams move.
            seed: 7,
            ..Default::default()
        };
        let mut g = generator(&opts);
        let space = toy_space();
        let mut history = Vec::new();
        let mut sources = Vec::new();
        for _ in 0..20 {
            let s = g.suggest(&opts, &history, &[], None);
            sources.push(s.source);
            history.push(evaluate(&space, &s.config, 0.5));
        }
        // AGD needs ≥12 observations and fires at (i+1) % 5 == 0 → i = 14, 19
        // (earlier slots fall through to BO while history is thin); the
        // proposal may still be vetoed when the surrogate predicts no
        // descent, in which case the slot runs BO.
        for i in [4usize, 9] {
            assert_ne!(
                sources[i],
                SuggestionKind::Agd,
                "too early at {i}: {sources:?}"
            );
        }
        let fired = [14usize, 19]
            .iter()
            .filter(|&&i| sources[i] == SuggestionKind::Agd)
            .count();
        assert!(fired >= 1, "AGD fires on schedule: {sources:?}");
    }

    #[test]
    fn agd_disabled_when_cadence_zero() {
        let opts = TunerOptions {
            n_agd: 0,
            ..Default::default()
        };
        let mut g = generator(&opts);
        let space = toy_space();
        let mut history = Vec::new();
        for _ in 0..10 {
            let s = g.suggest(&opts, &history, &[], None);
            assert_ne!(s.source, SuggestionKind::Agd);
            history.push(evaluate(&space, &s.config, 0.5));
        }
    }

    #[test]
    fn optimizes_toy_cost_objective() {
        let opts = TunerOptions::default();
        let mut g = generator(&opts);
        let space = toy_space();
        let mut history = vec![evaluate(&space, &space.default_configuration(), 0.5)];
        for _ in 0..20 {
            let s = g.suggest(&opts, &history, &[], None);
            history.push(evaluate(&space, &s.config, 0.5));
        }
        let first = history[0].objective;
        let best = history
            .iter()
            .map(|o| o.objective)
            .fold(f64::INFINITY, f64::min);
        assert!(best < first * 0.8, "improved: {best} vs initial {first}");
    }

    #[test]
    fn safety_keeps_suggestions_inside_threshold_mostly() {
        let space = toy_space();
        let default_rt = toy_runtime(&space.default_configuration());
        let t_max = default_rt * 1.5;
        let opts = TunerOptions {
            t_max: Some(t_max),
            n_init: 3,
            seed: 11,
            ..Default::default()
        };
        let mut g = generator(&opts);
        let mut history = vec![evaluate(&space, &space.default_configuration(), 0.5)];
        let mut violations = 0;
        let mut total = 0;
        for _ in 0..20 {
            let s = g.suggest(&opts, &history, &[], None);
            let o = evaluate(&space, &s.config, 0.5);
            if matches!(s.source, SuggestionKind::Bo) {
                total += 1;
                if o.runtime > t_max {
                    violations += 1;
                }
            }
            history.push(o);
        }
        assert!(total > 5, "enough BO iterations: {total}");
        assert!(
            (violations as f64) < total as f64 * 0.4,
            "safety limits violations: {violations}/{total}"
        );
    }

    #[test]
    fn analytic_resource_constraint_is_hard() {
        let space = toy_space();
        let r_max = 100.0;
        let opts = TunerOptions {
            r_max: Some(r_max),
            n_init: 2,
            ..Default::default()
        };
        let mut g = generator(&opts);
        // Seed history with feasible points so the incumbent is feasible.
        let mut history = vec![evaluate(&space, &space.default_configuration(), 0.5)];
        for _ in 0..15 {
            let s = g.suggest(&opts, &history, &[], None);
            if matches!(s.source, SuggestionKind::Bo) {
                assert!(
                    toy_resource()(&s.config) <= r_max,
                    "BO suggestions respect R_max"
                );
            }
            history.push(evaluate(&space, &s.config, 0.5));
        }
    }

    #[test]
    fn subspace_evolves_with_failures() {
        let opts = TunerOptions {
            subspace: Some(SubspaceParams {
                k_init: 3,
                k_min: 1,
                k_max: 4,
                tau_success: 2,
                tau_failure: 2,
                step: 1,
            }),
            n_init: 2,
            n_agd: 0,
            ..Default::default()
        };
        let mut g = generator(&opts);
        let space = toy_space();
        // Feed a history that never improves → failures shrink K.
        let mut history = vec![evaluate(&space, &space.default_configuration(), 0.5)];
        // Make the "best" extremely good so every new obs is a failure.
        history[0].objective = -1e9;
        for _ in 0..8 {
            let s = g.suggest(&opts, &history, &[], None);
            let mut o = evaluate(&space, &s.config, 0.5);
            o.objective = 1.0;
            history.push(o);
        }
        assert!(g.subspace_k() < 3, "K shrank: {}", g.subspace_k());
    }

    #[test]
    #[ignore = "seed-scan helper, run manually when retuning stream-sensitive seeds"]
    fn scan_agd_seeds() {
        let space = toy_space();
        for seed in 0..40u64 {
            let opts = TunerOptions {
                n_init: 3,
                n_agd: 5,
                seed,
                ..Default::default()
            };
            let mut g = generator(&opts);
            let mut history = Vec::new();
            let mut sources = Vec::new();
            for _ in 0..20 {
                let s = g.suggest(&opts, &history, &[], None);
                sources.push(s.source);
                history.push(evaluate(&space, &s.config, 0.5));
            }
            let fired = [14usize, 19]
                .iter()
                .filter(|&&i| sources[i] == SuggestionKind::Agd)
                .count();
            let early = [4usize, 9]
                .iter()
                .filter(|&&i| sources[i] == SuggestionKind::Agd)
                .count();
            println!("seed {seed}: fired={fired} early={early}");
        }
    }
}
