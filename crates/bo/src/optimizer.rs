//! Constrained acquisition maximization over the safe sub-space
//! (Algorithm 2, lines 6–8).

use crate::acquisition::{eic, expected_improvement, prob_below};
use crate::safe::SafeRegion;
use crate::surrogate::Predictor;
use otune_gp::{GaussianProcess, Rows};
use otune_pool::Pool;
use otune_space::{CandidateRows, Configuration, Subspace};
use otune_telemetry::{metric, Telemetry};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Candidate-generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct CandidateParams {
    /// Uniform random candidates drawn from the sub-space.
    pub n_random: usize,
    /// Local perturbations of the incumbent (exploitation candidates).
    pub n_local: usize,
    /// Perturbation scale for the local candidates (encoded units).
    pub local_scale: f64,
}

impl Default for CandidateParams {
    fn default() -> Self {
        CandidateParams {
            n_random: 700,
            n_local: 160,
            local_scale: 0.08,
        }
    }
}

/// The EIC objective: an objective surrogate, the incumbent value, and
/// probabilistic constraints `(surrogate, threshold)`.
pub struct EicObjective<'a> {
    /// Surrogate over `encode(config) ++ context` predicting the objective
    /// (a plain GP or the meta-learning ensemble).
    pub objective_gp: &'a dyn Predictor,
    /// Best (feasible) objective observed so far.
    pub y_best: f64,
    /// Constraint surrogates with their upper bounds; each contributes a
    /// `Pr[c(x) ≤ τ]` factor to EIC (Eq. 6).
    pub constraints: Vec<(&'a GaussianProcess, f64)>,
}

impl EicObjective<'_> {
    /// Evaluate EIC at an encoded point (configuration + context).
    pub fn eval(&self, x: &[f64]) -> f64 {
        let (mean, var) = self.objective_gp.predict(x);
        let ei = expected_improvement(mean, var, self.y_best);
        let probs: Vec<f64> = self
            .constraints
            .iter()
            .map(|(gp, thr)| {
                let (m, v) = gp.predict(x);
                prob_below(m, v, *thr)
            })
            .collect();
        eic(ei, &probs)
    }

    /// Evaluate EIC at many encoded points through the surrogates' batched
    /// prediction paths. Per point this combines the same predictions with
    /// the same arithmetic as [`EicObjective::eval`], so the scores match
    /// the scalar path exactly for every pool width.
    pub fn eval_batch(&self, xs: Rows<'_>, pool: &Pool) -> Vec<f64> {
        self.eval_batch_reusing(xs, Vec::new(), pool)
    }

    /// [`EicObjective::eval_batch`] with optional precomputed constraint
    /// posteriors. `reuse[k]`, when present, must hold `(mean, var)` for
    /// constraint `k` at exactly `xs` — per-point predictions are pure
    /// functions of the surrogate and the point, so substituting them is
    /// bitwise-identical to re-predicting. Missing or `None` entries are
    /// predicted here as usual.
    pub fn eval_batch_reusing(
        &self,
        xs: Rows<'_>,
        mut reuse: Vec<Option<Vec<(f64, f64)>>>,
        pool: &Pool,
    ) -> Vec<f64> {
        let obj = self.objective_gp.predict_many(xs, pool);
        reuse.resize(self.constraints.len(), None);
        let cons: Vec<Vec<(f64, f64)>> = self
            .constraints
            .iter()
            .zip(reuse)
            .map(|((gp, _), pre)| pre.unwrap_or_else(|| gp.predict_batch_pooled(xs, pool)))
            .collect();
        let mut probs = Vec::with_capacity(self.constraints.len());
        obj.into_iter()
            .enumerate()
            .map(|(j, (mean, var))| {
                let ei = expected_improvement(mean, var, self.y_best);
                probs.clear();
                for (preds, (_, thr)) in cons.iter().zip(&self.constraints) {
                    let (m, v) = preds[j];
                    probs.push(prob_below(m, v, *thr));
                }
                eic(ei, &probs)
            })
            .collect()
    }
}

/// Outcome of one acquisition maximization.
#[derive(Debug, Clone)]
pub struct AcquisitionChoice {
    /// The chosen configuration.
    pub config: Configuration,
    /// EIC value at the choice (0 when chosen by least-violation fallback).
    pub eic: f64,
    /// Whether the choice came from inside the safe region.
    pub from_safe_region: bool,
}

/// Maximize EIC over the safe region within the sub-space.
///
/// Candidates are sub-space samples plus local perturbations of the
/// incumbent; `analytic_feasible` drops candidates violating white-box
/// constraints (e.g. `R(x) ≤ R_max`); `safe_regions` is the intersection of
/// GP safe regions (§4.2). When the candidate set contains no safe point,
/// the *least-violating* candidate is returned — the conservative
/// exploration fallback of SafeOpt-style methods.
#[allow(clippy::too_many_arguments)]
pub fn maximize_eic(
    sub: &Subspace,
    context: &[f64],
    objective: &EicObjective<'_>,
    safe_regions: &[SafeRegion<'_>],
    analytic_feasible: Option<&dyn Fn(&Configuration) -> bool>,
    incumbent: Option<&Configuration>,
    params: CandidateParams,
    rng: &mut StdRng,
) -> AcquisitionChoice {
    maximize_eic_with(
        sub,
        context,
        objective,
        safe_regions,
        analytic_feasible,
        incumbent,
        params,
        rng,
        &Telemetry::disabled(),
        Pool::global(),
    )
}

/// [`maximize_eic`] with instrumentation and an explicit worker pool:
/// records the number of EIC evaluations per call (`eic_evals_per_iter`
/// histogram) and counts candidates rejected by the GP safe region
/// (`safe_region_rejections` counter).
///
/// The candidates live in one flat [`CandidateRows`] matrix and are
/// never materialised as configurations: deduplication compares value
/// words, the analytic filter decodes only the rows it tests, screening
/// and scoring read row views of the matrix, and only the winner is
/// decoded. Safe-region screening and EIC scoring run through the
/// surrogates' batched prediction paths in parallel chunks; winners are
/// selected by folding scores in candidate order, which reproduces the
/// sequential first-max (and first-min for the fallback) tie-breaking
/// exactly. The returned choice is therefore identical for every pool
/// width.
#[allow(clippy::too_many_arguments)]
pub fn maximize_eic_with(
    sub: &Subspace,
    context: &[f64],
    objective: &EicObjective<'_>,
    safe_regions: &[SafeRegion<'_>],
    analytic_feasible: Option<&dyn Fn(&Configuration) -> bool>,
    incumbent: Option<&Configuration>,
    params: CandidateParams,
    rng: &mut StdRng,
    telemetry: &Telemetry,
    pool: &Pool,
) -> AcquisitionChoice {
    let _trace = telemetry.trace_span("eic_maximize");
    let space = sub.space();
    let gen_span = telemetry.trace_span("candidate_gen");
    let mut rows = CandidateRows::default();
    fill_candidates(sub, context, incumbent, params, rng, &mut rows);
    gen_span.finish();

    let kept = distinct_feasible(sub, &rows, analytic_feasible);
    if kept.is_empty() {
        // Analytic constraints rejected everything — fall back to the
        // incumbent or the sub-space base.
        let config = incumbent.cloned().unwrap_or_else(|| sub.base().clone());
        return AcquisitionChoice {
            config,
            eic: 0.0,
            from_safe_region: false,
        };
    }
    let matrix = Rows::new(rows.encoded(), rows.width());
    let candidates = matrix.select(&kept);

    // Safe-region screening: batched upper bounds per region, violations
    // accumulated in region order (the same sum order as per-candidate
    // `violation` calls). The span covers the whole batched screen, not
    // per-chunk work, so traces stay invariant to pool width.
    // The raw posteriors behind each region are kept: when an EIC
    // constraint shares its surrogate with a region (the common runtime
    // GP), its predictions over the safe survivors are a subset of what
    // the screen already computed and are reused instead of re-predicted.
    let screen_span = telemetry.trace_span("safe_screen");
    let mut region_preds: Vec<Vec<(f64, f64)>> = Vec::with_capacity(safe_regions.len());
    let mut violations = vec![0.0; kept.len()];
    for region in safe_regions {
        let preds = region.surrogate().predict_batch_pooled(candidates, pool);
        for (acc, &(m, v)) in violations.iter_mut().zip(&preds) {
            *acc += region.violation_from(m, v);
        }
        region_preds.push(preds);
    }
    screen_span.finish();

    // EIC is scored only for the safe survivors, exactly as the scalar
    // loop did — so `eic_evals_per_iter` keeps its meaning. `safe` holds
    // positions in `kept`; `safe_rows` the matching matrix rows.
    let safe: Vec<usize> = (0..kept.len()).filter(|&j| violations[j] <= 0.0).collect();
    let safe_rows: Vec<usize> = safe.iter().map(|&j| kept[j]).collect();
    let reuse: Vec<Option<Vec<(f64, f64)>>> = objective
        .constraints
        .iter()
        .map(|&(gp, _)| {
            safe_regions
                .iter()
                .position(|r| std::ptr::eq(gp, r.surrogate()))
                .map(|ri| safe.iter().map(|&j| region_preds[ri][j]).collect())
        })
        .collect();
    let score_span = telemetry.trace_span("eic_score");
    let scores = objective.eval_batch_reusing(matrix.select(&safe_rows), reuse, pool);
    score_span.finish();

    // Fold in candidate order: first-max among safe candidates, first-min
    // violation among unsafe ones — the sequential tie-breaking.
    let mut best_safe: Option<(usize, f64)> = None;
    for (&j, &v) in safe.iter().zip(&scores) {
        if best_safe.is_none_or(|(_, b)| v > b) {
            best_safe = Some((j, v));
        }
    }
    let mut least_violation: Option<(usize, f64)> = None;
    for (j, &violation) in violations.iter().enumerate() {
        if violation > 0.0 && least_violation.is_none_or(|(_, b)| violation < b) {
            least_violation = Some((j, violation));
        }
    }
    let n_evals = safe.len() as u64;
    let n_rejected = (kept.len() - safe.len()) as u64;
    telemetry.observe(metric::EIC_EVALS_PER_ITER, n_evals as f64);
    telemetry.add(metric::SAFE_REGION_REJECTIONS, n_rejected);

    let (j, eic, from_safe_region) = match best_safe {
        Some((j, v)) => (j, v, true),
        None => {
            let (j, _) = least_violation.expect("candidates is non-empty");
            (j, 0.0, false)
        }
    };
    AcquisitionChoice {
        config: space.decode_words(rows.words(kept[j])),
        eic,
        from_safe_region,
    }
}

/// Fill `rows` with the EIC candidate set over `sub`: `params.n_random`
/// uniform samples, then (given an incumbent) `params.n_local` local
/// perturbations of it at scales cycling through 1, 0.4 and 0.15 ×
/// `params.local_scale`. Every row is followed by `context`.
pub fn fill_candidates(
    sub: &Subspace,
    context: &[f64],
    incumbent: Option<&Configuration>,
    params: CandidateParams,
    rng: &mut impl Rng,
    rows: &mut CandidateRows,
) {
    rows.reset(sub.space().len(), context);
    sub.push_samples(params.n_random, rng, rows);
    if let Some(inc) = incumbent {
        let scales = (0..params.n_local).map(|i| params.local_scale * [1.0, 0.4, 0.15][i % 3]);
        sub.push_neighbors(inc, scales, rng, rows);
    }
}

/// Indices of the rows that are the first occurrence of their
/// configuration (equal value words) and pass `analytic_feasible`, in
/// row order. Deduplication comes first: a row the filter rejects still
/// claims its configuration, so its later duplicates are dropped without
/// being tested. Each tested row is decoded into one reused
/// configuration.
pub fn distinct_feasible(
    sub: &Subspace,
    rows: &CandidateRows,
    analytic_feasible: Option<&dyn Fn(&Configuration) -> bool>,
) -> Vec<usize> {
    let mut seen: HashSet<Words<'_>, BuildHasherDefault<WordHasher>> =
        HashSet::with_capacity_and_hasher(rows.len(), Default::default());
    let mut probe = sub.base().clone();
    (0..rows.len())
        .filter(|&i| {
            seen.insert(Words(rows.words(i)))
                && analytic_feasible.is_none_or(|f| {
                    sub.space().decode_words_into(rows.words(i), &mut probe);
                    f(&probe)
                })
        })
        .collect()
}

/// A candidate's value words as a dedup-set key, hashed word by word.
#[derive(PartialEq, Eq)]
struct Words<'a>(&'a [u64]);

impl Hash for Words<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for &word in self.0 {
            state.write_u64(word);
        }
    }
}

/// Multiply-rotate word hasher (the FxHash mix) for the dedup set. The
/// keys are exact value words the sampler produced, never adversarial,
/// so SipHash's flooding resistance buys nothing on this hot path.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otune_gp::{FeatureKind, GpConfig};
    use otune_space::{ConfigSpace, Parameter, Subspace};
    use rand::SeedableRng;

    fn space() -> ConfigSpace {
        ConfigSpace::new(vec![
            Parameter::float("a", 0.0, 1.0, 0.5),
            Parameter::float("b", 0.0, 1.0, 0.5),
        ])
    }

    /// GP over y = (a − 0.2)² (optimum at a = 0.2), flat in b.
    fn objective_gp() -> GaussianProcess {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..12 {
            for j in 0..3 {
                let a = i as f64 / 11.0;
                let b = j as f64 / 2.0;
                x.push(vec![a, b]);
                y.push((a - 0.2) * (a - 0.2));
            }
        }
        GaussianProcess::fit(
            vec![FeatureKind::Numeric, FeatureKind::Numeric],
            x,
            &y,
            GpConfig::default(),
        )
        .unwrap()
    }

    /// Runtime GP: T = 100 + 500·a (safe only for small a).
    fn runtime_gp() -> GaussianProcess {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..12 {
            let a = i as f64 / 11.0;
            x.push(vec![a, 0.5]);
            y.push(100.0 + 500.0 * a);
        }
        GaussianProcess::fit(
            vec![FeatureKind::Numeric, FeatureKind::Numeric],
            x,
            &y,
            GpConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn finds_low_objective_region() {
        let s = space();
        let sub = Subspace::full(&s, s.default_configuration()).unwrap();
        let gp = objective_gp();
        let obj = EicObjective {
            objective_gp: &gp,
            y_best: 0.5,
            constraints: vec![],
        };
        let mut rng = StdRng::seed_from_u64(2);
        let choice = maximize_eic(
            &sub,
            &[],
            &obj,
            &[],
            None,
            None,
            CandidateParams::default(),
            &mut rng,
        );
        let a = choice.config[0].as_float().unwrap();
        assert!((a - 0.2).abs() < 0.25, "chose a = {a}");
        assert!(choice.from_safe_region);
        assert!(choice.eic > 0.0);
    }

    #[test]
    fn safe_region_excludes_fast_but_unsafe_zone() {
        let s = space();
        let sub = Subspace::full(&s, s.default_configuration()).unwrap();
        // Objective optimum at a = 0.9 — but runtime there is unsafe.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..12 {
            let a = i as f64 / 11.0;
            x.push(vec![a, 0.5]);
            y.push((a - 0.9) * (a - 0.9));
        }
        let ogp = GaussianProcess::fit(
            vec![FeatureKind::Numeric, FeatureKind::Numeric],
            x,
            &y,
            GpConfig::default(),
        )
        .unwrap();
        let rgp = runtime_gp();
        let region = SafeRegion::new(&rgp, 300.0, 1.0); // safe ⇔ a ≲ 0.4
        let obj = EicObjective {
            objective_gp: &ogp,
            y_best: 1.0,
            constraints: vec![],
        };
        let mut rng = StdRng::seed_from_u64(3);
        let choice = maximize_eic(
            &sub,
            &[],
            &obj,
            &[region],
            None,
            None,
            CandidateParams::default(),
            &mut rng,
        );
        let a = choice.config[0].as_float().unwrap();
        assert!(a < 0.55, "stayed in the safe zone, a = {a}");
        assert!(choice.from_safe_region);
    }

    #[test]
    fn empty_safe_region_returns_least_violating() {
        let s = space();
        let sub = Subspace::full(&s, s.default_configuration()).unwrap();
        let ogp = objective_gp();
        let rgp = runtime_gp();
        // Threshold below every achievable upper bound → empty safe region.
        let region = SafeRegion::new(&rgp, 50.0, 1.0);
        let obj = EicObjective {
            objective_gp: &ogp,
            y_best: 1.0,
            constraints: vec![],
        };
        let mut rng = StdRng::seed_from_u64(4);
        let choice = maximize_eic(
            &sub,
            &[],
            &obj,
            &[region],
            None,
            None,
            CandidateParams::default(),
            &mut rng,
        );
        assert!(!choice.from_safe_region);
        // Least violation = smallest runtime = smallest a.
        let a = choice.config[0].as_float().unwrap();
        assert!(a < 0.2, "least-unsafe candidate has small a, got {a}");
    }

    #[test]
    fn analytic_constraint_filters_candidates() {
        let s = space();
        let sub = Subspace::full(&s, s.default_configuration()).unwrap();
        let gp = objective_gp();
        let obj = EicObjective {
            objective_gp: &gp,
            y_best: 0.5,
            constraints: vec![],
        };
        let only_large_b = |c: &Configuration| c[1].as_float().unwrap() > 0.8;
        let mut rng = StdRng::seed_from_u64(5);
        let choice = maximize_eic(
            &sub,
            &[],
            &obj,
            &[],
            Some(&only_large_b),
            None,
            CandidateParams::default(),
            &mut rng,
        );
        assert!(choice.config[1].as_float().unwrap() > 0.8);
    }

    #[test]
    fn rejected_candidate_keeps_its_duplicates_out() {
        // Six distinct configurations, so almost every candidate is a
        // duplicate. The filter rejects a configuration the first time
        // it is asked and accepts it afterwards: only if deduplication
        // runs first (a rejected row still claims its configuration) are
        // all candidates dropped, leaving the base as the fallback.
        let s = ConfigSpace::new(vec![
            Parameter::boolean("flag", false),
            Parameter::categorical("codec", &["lz4", "snappy", "zstd"], 0),
        ]);
        let sub = Subspace::full(&s, s.default_configuration()).unwrap();
        let gp = objective_gp_over(&s);
        let obj = EicObjective {
            objective_gp: &gp,
            y_best: 0.5,
            constraints: vec![],
        };
        let asked = std::cell::RefCell::new(Vec::<Configuration>::new());
        let first_time_rejected = |c: &Configuration| {
            let mut asked = asked.borrow_mut();
            let seen = asked.contains(c);
            asked.push(c.clone());
            seen
        };
        let mut rng = StdRng::seed_from_u64(11);
        let choice = maximize_eic(
            &sub,
            &[],
            &obj,
            &[],
            Some(&first_time_rejected),
            None,
            CandidateParams {
                n_random: 60,
                n_local: 0,
                local_scale: 0.1,
            },
            &mut rng,
        );
        let asked = asked.into_inner();
        assert!(asked.len() <= 6, "each configuration is tested once");
        assert!(asked.len() >= 2, "the samples cover several configurations");
        assert_eq!(choice.config, s.default_configuration());
        assert!(!choice.from_safe_region);
        assert_eq!(choice.eic, 0.0);
    }

    /// A GP over `space`'s encoding with a target that varies by point.
    fn objective_gp_over(space: &ConfigSpace) -> GaussianProcess {
        let mut rng = StdRng::seed_from_u64(1);
        let x: Vec<Vec<f64>> = (0..8)
            .map(|_| space.encode(&space.sample(&mut rng)))
            .collect();
        let y: Vec<f64> = x.iter().map(|v| v.iter().sum()).collect();
        let kinds = crate::surrogate::surrogate_kinds(space, 0);
        GaussianProcess::fit(kinds, x, &y, GpConfig::default()).unwrap()
    }

    #[test]
    fn probabilistic_constraint_downweights_risky_zone() {
        let s = space();
        let sub = Subspace::full(&s, s.default_configuration()).unwrap();
        // Flat objective (pure-exploration EI), runtime constraint prefers small a.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..10 {
            x.push(vec![i as f64 / 9.0, 0.5]);
            y.push(1.0 + 1e-3 * i as f64);
        }
        let ogp = GaussianProcess::fit(
            vec![FeatureKind::Numeric, FeatureKind::Numeric],
            x,
            &y,
            GpConfig::default(),
        )
        .unwrap();
        let rgp = runtime_gp();
        let obj = EicObjective {
            objective_gp: &ogp,
            y_best: 1.0,
            constraints: vec![(&rgp, 300.0)],
        };
        let mut rng = StdRng::seed_from_u64(6);
        let choice = maximize_eic(
            &sub,
            &[],
            &obj,
            &[],
            None,
            None,
            CandidateParams::default(),
            &mut rng,
        );
        let a = choice.config[0].as_float().unwrap();
        assert!(a < 0.6, "EIC avoids the low-feasibility zone, a = {a}");
    }

    #[test]
    fn telemetry_counts_evals_and_rejections() {
        let s = space();
        let sub = Subspace::full(&s, s.default_configuration()).unwrap();
        let ogp = objective_gp();
        let rgp = runtime_gp();
        // safe ⇔ a ≲ 0.4, so a substantial share of candidates is rejected.
        let region = SafeRegion::new(&rgp, 300.0, 1.0);
        let obj = EicObjective {
            objective_gp: &ogp,
            y_best: 1.0,
            constraints: vec![],
        };
        let mut rng = StdRng::seed_from_u64(8);
        let (telemetry, _sink) = Telemetry::ring(4);
        let choice = maximize_eic_with(
            &sub,
            &[],
            &obj,
            &[region],
            None,
            None,
            CandidateParams::default(),
            &mut rng,
            &telemetry,
            &Pool::new(4),
        );
        assert!(choice.from_safe_region);
        let snap = telemetry.snapshot().unwrap();
        let evals = snap.histograms[metric::EIC_EVALS_PER_ITER].max;
        let rejections = snap.counters[metric::SAFE_REGION_REJECTIONS];
        assert!(evals > 0.0, "some candidates were evaluated");
        assert!(rejections > 0, "some candidates were rejected");
        assert!(
            (evals + rejections as f64) <= CandidateParams::default().n_random as f64 + 1.0,
            "evals + rejections bounded by the candidate count"
        );
    }

    #[test]
    fn choice_is_pool_width_invariant() {
        let s = space();
        let sub = Subspace::full(&s, s.default_configuration()).unwrap();
        let ogp = objective_gp();
        let rgp = runtime_gp();
        let incumbent = s.default_configuration();
        let run = |pool: &Pool| {
            // Same RNG seed per run: candidate generation stays on the
            // caller thread, so the stream is identical by construction
            // and any divergence comes from the pooled scoring paths.
            let region = SafeRegion::new(&rgp, 400.0, 1.0);
            let obj = EicObjective {
                objective_gp: &ogp,
                y_best: 0.3,
                constraints: vec![(&rgp, 400.0)],
            };
            let mut rng = StdRng::seed_from_u64(13);
            maximize_eic_with(
                &sub,
                &[],
                &obj,
                &[region],
                None,
                Some(&incumbent),
                CandidateParams::default(),
                &mut rng,
                &Telemetry::disabled(),
                pool,
            )
        };
        let seq = run(&Pool::sequential());
        for width in [1, 2, 4, 8] {
            let par = run(&Pool::new(width));
            assert_eq!(seq.config, par.config, "width {width}");
            assert_eq!(seq.eic.to_bits(), par.eic.to_bits(), "width {width}");
            assert_eq!(seq.from_safe_region, par.from_safe_region);
        }
    }

    #[test]
    fn constraint_sharing_region_surrogate_reuses_predictions_bitwise() {
        let s = space();
        let sub = Subspace::full(&s, s.default_configuration()).unwrap();
        let ogp = objective_gp();
        let rgp = runtime_gp();
        // A clone has identical posteriors but a distinct address, so it
        // forces the no-reuse path; the shared reference takes the reuse
        // path. The choices must match bit-for-bit.
        let rgp_clone = rgp.clone();
        let run = |constraint_gp: &GaussianProcess| {
            let region = SafeRegion::new(&rgp, 400.0, 1.0);
            let obj = EicObjective {
                objective_gp: &ogp,
                y_best: 0.3,
                constraints: vec![(constraint_gp, 400.0)],
            };
            let mut rng = StdRng::seed_from_u64(21);
            maximize_eic_with(
                &sub,
                &[],
                &obj,
                &[region],
                None,
                None,
                CandidateParams::default(),
                &mut rng,
                &Telemetry::disabled(),
                Pool::global(),
            )
        };
        let shared = run(&rgp);
        let distinct = run(&rgp_clone);
        assert_eq!(shared.config, distinct.config);
        assert_eq!(shared.eic.to_bits(), distinct.eic.to_bits());
        assert_eq!(shared.from_safe_region, distinct.from_safe_region);
    }

    #[test]
    fn local_candidates_exploit_incumbent() {
        let s = space();
        let sub = Subspace::full(&s, s.default_configuration()).unwrap();
        let gp = objective_gp();
        let obj = EicObjective {
            objective_gp: &gp,
            y_best: 0.01,
            constraints: vec![],
        };
        let incumbent = s
            .configuration(vec![
                otune_space::ParamValue::Float(0.2),
                otune_space::ParamValue::Float(0.5),
            ])
            .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let choice = maximize_eic(
            &sub,
            &[],
            &obj,
            &[],
            None,
            Some(&incumbent),
            CandidateParams {
                n_random: 20,
                n_local: 60,
                local_scale: 0.05,
            },
            &mut rng,
        );
        // With a tight incumbent and a tight y_best, the winner should sit
        // near the optimum basin.
        let a = choice.config[0].as_float().unwrap();
        assert!((a - 0.2).abs() < 0.3, "a = {a}");
    }
}
