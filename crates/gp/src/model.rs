//! Gaussian-process regression with LML-based hyperparameter fitting.

use crate::kernel::{FeatureKind, KernelHyper, MixedKernel, PackedSet};
use crate::tile::{CandidateTile, DistanceTile};
use otune_linalg::simd::LANES;
use otune_linalg::{Cholesky, LinalgError, Matrix, Rows};
use otune_pool::Pool;
use otune_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;

/// Relative slack on `s = ‖L⁻¹k‖²` in [`GaussianProcess::tile_var_bounds`]:
/// covers the rounding of the computed `s` against the exact quadratic
/// form the bounds hold for, with ample margin at the conditioning the
/// jitter ladder admits.
const VAR_BOUND_SLACK: f64 = 1e-6;

/// Errors from GP fitting and prediction.
#[derive(Debug, Clone, PartialEq)]
pub enum GpError {
    /// No observations were provided.
    Empty,
    /// Rows of `X` have inconsistent dimensionality, or `X`/`y` lengths differ.
    ShapeMismatch,
    /// A target value is not finite.
    NonFiniteTarget,
    /// Covariance factorization failed.
    Linalg(LinalgError),
}

impl std::fmt::Display for GpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpError::Empty => write!(f, "no observations"),
            GpError::ShapeMismatch => write!(f, "input shape mismatch"),
            GpError::NonFiniteTarget => write!(f, "non-finite target value"),
            GpError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl std::error::Error for GpError {}

impl From<LinalgError> for GpError {
    fn from(e: LinalgError) -> Self {
        GpError::Linalg(e)
    }
}

/// Fitting options.
#[derive(Debug, Clone, Copy)]
pub struct GpConfig {
    /// Optimize hyperparameters by LML (otherwise keep the supplied ones).
    pub optimize_hypers: bool,
    /// Random-search candidates for the LML optimization.
    pub n_candidates: usize,
    /// Coordinate-refinement sweeps after random search.
    pub n_refine: usize,
    /// Seed for the hyperparameter search.
    pub seed: u64,
    /// Warm-start hyperparameters: a previous search winner that seeds
    /// the candidate list. With `optimize_hypers`, it is evaluated first
    /// (ahead of the defaults and the random draws); without, the fit
    /// uses exactly these hyperparameters — a "same-hyper full refit".
    pub warm_hyper: Option<KernelHyper>,
}

impl Default for GpConfig {
    fn default() -> Self {
        GpConfig {
            optimize_hypers: true,
            n_candidates: 30,
            n_refine: 3,
            seed: 0,
            warm_hyper: None,
        }
    }
}

/// Policy for incremental surrogate maintenance across online updates.
///
/// [`GaussianProcess::update`] keeps the fitted hyperparameters and
/// extends the cached Cholesky factor in O(n²); a full pooled
/// hyperparameter re-search runs only every [`refit_period`] updates or
/// when the per-observation log marginal likelihood falls more than
/// [`lml_degradation`] nats below the value recorded at the last full
/// search. The extended model is bitwise-identical to a same-hyper full
/// refit (`GpConfig { optimize_hypers: false, warm_hyper: Some(..) }`),
/// which the proptests use as the oracle.
///
/// [`refit_period`]: IncrementalPolicy::refit_period
/// [`lml_degradation`]: IncrementalPolicy::lml_degradation
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncrementalPolicy {
    /// Run a full hyperparameter re-search every this many updates
    /// (0 disables scheduled re-searches).
    pub refit_period: usize,
    /// Per-observation LML drop (nats) below the last full-search value
    /// that triggers an early re-search (`f64::INFINITY` disables).
    pub lml_degradation: f64,
}

impl Default for IncrementalPolicy {
    fn default() -> Self {
        IncrementalPolicy {
            refit_period: 16,
            lml_degradation: 1.0,
        }
    }
}

impl IncrementalPolicy {
    /// Never re-search hyperparameters — for fixed-hyper models that are
    /// extended point-by-point (e.g. progressive-validation fits).
    pub fn never_research() -> Self {
        IncrementalPolicy {
            refit_period: 0,
            lml_degradation: f64::INFINITY,
        }
    }
}

/// What one [`GaussianProcess::update`] call actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// O(n²) rank-one extension of the cached factor, hypers unchanged.
    Incremental,
    /// The cached jitter level could not absorb the new row; the factor
    /// was rebuilt with a fresh jitter ladder (hypers unchanged).
    JitterInvalidated,
    /// A full pooled hyperparameter re-search ran (warm-started from the
    /// previous winner).
    HyperSearch(SearchTrigger),
}

/// Why a full hyperparameter re-search ran inside an update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchTrigger {
    /// The scheduled every-`refit_period` re-search.
    Scheduled,
    /// The incremental LML degraded past the policy threshold.
    LmlDegraded,
}

/// A fitted Gaussian process with standardized targets.
///
/// Predictions follow Eq. 2: `μ(x) = k(X,x)ᵀ (K + τ²I)⁻¹ y` and
/// `σ²(x) = k(x,x) − k(X,x)ᵀ (K + τ²I)⁻¹ k(X,x)` (plus τ²), computed via a
/// cached Cholesky factor.
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    kernel: MixedKernel,
    x: Vec<Vec<f64>>,
    /// Raw (unstandardized) targets, kept so incremental updates can
    /// recompute the standardization and re-search hyperparameters.
    y: Vec<f64>,
    /// `(K + τ²I)⁻¹ ỹ` where ỹ is the standardized target.
    alpha: Vec<f64>,
    chol: Cholesky,
    y_mean: f64,
    y_std: f64,
    lml: f64,
    /// Updates applied since the last full hyperparameter search.
    updates_since_search: usize,
    /// Per-observation LML recorded at the last full search — the
    /// reference for the degradation trigger.
    last_search_lml_per_obs: f64,
}

impl GaussianProcess {
    /// Fit a GP on encoded inputs `x` (all rows the same length, matching
    /// `kinds`) and targets `y`, evaluating LML hyperparameter candidates
    /// on `pool`.
    ///
    /// Every candidate's LML is a pure function of the candidate, so the
    /// evaluations run in parallel; the winner is then chosen by folding
    /// the results in candidate order with a strict `>`, which replicates
    /// the sequential first-max selection exactly. The fitted model is
    /// therefore bitwise-identical for every pool width.
    ///
    /// Traced handles see the hyperparameter search as a `hyper_search`
    /// span, each candidate evaluation as a keyed `hyper_candidate` span
    /// (adopted onto pool worker threads), and the O(n²)/O(n³) kernels as
    /// `kernel_assembly`/`chol_factor` spans. Tracing never perturbs the
    /// RNG stream or candidate fold, so the fitted model is bitwise
    /// identical with tracing on or off.
    pub fn fit(
        kinds: Vec<FeatureKind>,
        x: Vec<Vec<f64>>,
        y: &[f64],
        cfg: GpConfig,
        pool: &Pool,
        telemetry: &Telemetry,
    ) -> Result<Self, GpError> {
        if x.is_empty() || y.is_empty() {
            return Err(GpError::Empty);
        }
        if x.len() != y.len() || x.iter().any(|r| r.len() != kinds.len()) {
            return Err(GpError::ShapeMismatch);
        }
        if y.iter().any(|v| !v.is_finite()) {
            return Err(GpError::NonFiniteTarget);
        }

        let y_mean = otune_linalg::mean(y);
        let y_std = {
            let s = otune_linalg::std_dev(y);
            if s > 1e-12 {
                s
            } else {
                1.0
            }
        };
        let ys: Vec<f64> = y.iter().map(|v| (v - y_mean) / y_std).collect();

        // Rough per-candidate cost model for the adaptive serial cutoff:
        // O(n²·d) kernel assembly plus O(n³) factorization, in
        // nanoseconds. Only gates worker dispatch — never results.
        let per_candidate_ns = {
            let n = x.len() as u64;
            let d = (kinds.len() as u64).max(1);
            n * n / 2 * d * 4 + n * n * n / 6 * 2
        };
        let search_span = telemetry.trace_span("hyper_search");
        // Every candidate's covariance reads the same training × training
        // distance sums: one pass per search, not one per candidate.
        let dist = training_distances(&kinds, &x);
        let evaluate = |hypers: &[KernelHyper]| -> Vec<Option<(Cholesky, Vec<f64>, f64)>> {
            // Capture the caller's span (the `hyper_search` span) so
            // worker threads parent their candidate spans under it; ids
            // are keyed by candidate index, not scheduling order.
            let ctx = telemetry.trace_ctx();
            pool.map_adaptive(hypers, per_candidate_ns, |i, &hyper| {
                let _adopted = telemetry.trace_adopt(ctx.clone());
                let _span = telemetry.trace_span_keyed("hyper_candidate", i as u64);
                let kernel = MixedKernel::new(kinds.clone(), hyper);
                Self::factor_traced(&kernel, &dist, &ys, telemetry).ok()
            })
        };

        let mut best_hyper = KernelHyper::default();
        let mut best_lml = f64::NEG_INFINITY;
        let mut best_fit: Option<(Cholesky, Vec<f64>)> = None;
        let fold = |hypers: &[KernelHyper],
                    evals: Vec<Option<(Cholesky, Vec<f64>, f64)>>,
                    best_hyper: &mut KernelHyper,
                    best_lml: &mut f64,
                    best_fit: &mut Option<(Cholesky, Vec<f64>)>| {
            for (&hyper, eval) in hypers.iter().zip(evals) {
                if let Some((chol, alpha, lml)) = eval {
                    if lml > *best_lml {
                        *best_lml = lml;
                        *best_hyper = hyper;
                        *best_fit = Some((chol, alpha));
                    }
                }
            }
        };

        // The random-search draws do not depend on any candidate's score,
        // so they are generated up front (in the same RNG order as a
        // sequential search) and evaluated as one batch. A warm-start
        // winner from a previous search leads the list; without one the
        // default hyperparameters do. When hyperparameters are held fixed
        // and a warm start is supplied, it is the *only* candidate — the
        // same-hyper full refit used to validate incremental updates.
        let optimize = cfg.optimize_hypers && x.len() >= 3;
        let mut candidates = Vec::new();
        if let Some(warm) = cfg.warm_hyper {
            candidates.push(warm);
        }
        if optimize || cfg.warm_hyper.is_none() {
            candidates.push(KernelHyper::default());
        }
        if optimize {
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            for _ in 0..cfg.n_candidates {
                candidates.push(KernelHyper::from_log([
                    rng.gen_range(-2.5..1.5),  // numeric lengthscale
                    rng.gen_range(-1.5..2.0),  // hamming decay
                    rng.gen_range(-2.5..1.5),  // datasize lengthscale
                    rng.gen_range(-1.0..1.5),  // signal variance
                    rng.gen_range(-9.0..-1.0), // noise variance
                ]));
            }
        }
        let evals = evaluate(&candidates);
        fold(
            &candidates,
            evals,
            &mut best_hyper,
            &mut best_lml,
            &mut best_fit,
        );

        if optimize {
            // Coordinate refinement around the incumbent. All ten
            // perturbations of a sweep are taken from the sweep-start
            // incumbent and evaluated as one parallel batch (Jacobi
            // style), then folded in order — so the outcome does not
            // depend on the pool width.
            for sweep in 0..cfg.n_refine {
                let step = 0.5 / (sweep + 1) as f64;
                let logs0 = best_hyper.to_log();
                let mut sweep_cands = Vec::with_capacity(10);
                for dim in 0..5 {
                    for dir in [-1.0, 1.0] {
                        let mut logs = logs0;
                        logs[dim] += dir * step;
                        sweep_cands.push(KernelHyper::from_log(logs));
                    }
                }
                let evals = evaluate(&sweep_cands);
                fold(
                    &sweep_cands,
                    evals,
                    &mut best_hyper,
                    &mut best_lml,
                    &mut best_fit,
                );
            }
        }
        search_span.finish();

        let (chol, alpha) = best_fit.ok_or(GpError::Linalg(LinalgError::NotPositiveDefinite {
            pivot: 0,
        }))?;
        let n = x.len();
        Ok(GaussianProcess {
            kernel: MixedKernel::new(kinds, best_hyper),
            x,
            y: y.to_vec(),
            alpha,
            chol,
            y_mean,
            y_std,
            lml: best_lml,
            updates_since_search: 0,
            last_search_lml_per_obs: best_lml / n as f64,
        })
    }

    /// The noisy covariance `K + τ²I` over the training inputs, read off
    /// their training × training distance sums `dist`.
    ///
    /// The lower triangle is assembled row by row through the lane-blocked
    /// kernel transform; each entry performs the identical operation
    /// sequence as [`MixedKernel::eval`], so the matrix is
    /// bitwise-identical to evaluating the kernel pair by pair (pinned by
    /// proptests).
    fn build_cov(kernel: &MixedKernel, dist: &DistanceTile) -> Result<Matrix, GpError> {
        let n = dist.rows();
        let mut k = Matrix::zeros(n, n);
        let mut hamming = Vec::new();
        kernel.hamming_table_into(dist.n_cat(), &mut hamming);
        for i in 0..n {
            let row = k.row_mut(i);
            dist.kernel_row(i, i + 1, &kernel.hyper, &hamming, |j0, vals| {
                let take = (i + 1 - j0).min(LANES);
                row[j0..j0 + take].copy_from_slice(&vals[..take]);
            });
        }
        for i in 0..n {
            for j in 0..i {
                k[(j, i)] = k[(i, j)];
            }
        }
        k.add_diagonal(kernel.hyper.noise_var)?;
        Ok(k)
    }

    fn factor_traced(
        kernel: &MixedKernel,
        dist: &DistanceTile,
        ys: &[f64],
        telemetry: &Telemetry,
    ) -> Result<(Cholesky, Vec<f64>, f64), GpError> {
        let k = {
            let _span = telemetry.trace_span("kernel_assembly");
            Self::build_cov(kernel, dist)?
        };
        let chol = {
            let _span = telemetry.trace_span("chol_factor");
            Cholesky::decompose(&k)?
        };
        let alpha = chol.solve(ys)?;
        let lml = -0.5 * otune_linalg::dot(ys, &alpha)
            - 0.5 * chol.log_det()
            - ys.len() as f64 / 2.0 * (2.0 * std::f64::consts::PI).ln();
        if !lml.is_finite() {
            return Err(GpError::NonFiniteTarget);
        }
        Ok((chol, alpha, lml))
    }

    /// Absorb one new observation, reusing the fitted hyperparameters.
    ///
    /// The common path grows the cached Cholesky factor by one row in
    /// O(n²). The model state is bitwise-identical to a same-hyper full
    /// refit, because the extension replays exactly the floating-point
    /// operations of a from-scratch factorization at the same jitter. A
    /// full pooled hyperparameter re-search — warm-started from the
    /// current winner — runs instead when `policy.refit_period` updates
    /// have accumulated, or afterwards when the per-observation LML has
    /// degraded more than `policy.lml_degradation` nats below the last
    /// full-search value.
    ///
    /// On error the new observation is rolled back and the model remains
    /// the previous valid fit. A failed *degradation* re-search is not an
    /// error: the fixed-hyper update already produced a valid model, which
    /// is kept.
    ///
    /// Traced handles see the factor growth as a `chol_extend` span, the
    /// posterior refresh as `posterior_refresh`, and a triggered
    /// re-search as the spans of [`GaussianProcess::fit`].
    pub fn update(
        &mut self,
        x_new: Vec<f64>,
        y_new: f64,
        policy: &IncrementalPolicy,
        cfg: GpConfig,
        pool: &Pool,
        telemetry: &Telemetry,
    ) -> Result<UpdateOutcome, GpError> {
        if x_new.len() != self.kernel.dim() {
            return Err(GpError::ShapeMismatch);
        }
        if !y_new.is_finite() {
            return Err(GpError::NonFiniteTarget);
        }
        self.x.push(x_new);
        self.y.push(y_new);

        if policy.refit_period > 0 && self.updates_since_search + 1 >= policy.refit_period {
            return match self.research(cfg, pool, telemetry) {
                Ok(()) => Ok(UpdateOutcome::HyperSearch(SearchTrigger::Scheduled)),
                Err(e) => {
                    self.x.pop();
                    self.y.pop();
                    Err(e)
                }
            };
        }

        let snapshot = self.chol.clone();
        let extend_span = telemetry.trace_span("chol_extend");
        let outcome = match self.regrow_factor() {
            Ok(outcome) => outcome,
            Err(e) => {
                self.x.pop();
                self.y.pop();
                self.chol = snapshot;
                return Err(e);
            }
        };
        extend_span.finish();
        {
            let _span = telemetry.trace_span("posterior_refresh");
            self.refresh_posterior()?;
        }

        let per_obs = self.lml / self.x.len() as f64;
        // NaN comparisons are false, so a non-finite incremental LML also
        // counts as degraded whenever the trigger is armed. (`<` would let
        // a NaN LML slip through, hence the negated `>=`.)
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        let degraded = policy.lml_degradation.is_finite()
            && !(per_obs >= self.last_search_lml_per_obs - policy.lml_degradation);
        if degraded && self.research(cfg, pool, telemetry).is_ok() {
            return Ok(UpdateOutcome::HyperSearch(SearchTrigger::LmlDegraded));
        }
        self.updates_since_search += 1;
        Ok(outcome)
    }

    /// Grow the factor for the just-appended observation at the current
    /// hyperparameters, replaying the stored jitter level. The full
    /// jitter ladder runs only when that level no longer suffices;
    /// because appending a row leaves the leading pivots untouched, a
    /// from-scratch refactor at the stored level would fail at the same
    /// point.
    fn regrow_factor(&mut self) -> Result<UpdateOutcome, GpError> {
        let n = self.x.len() - 1;
        // Row i = n of the covariance, in the same evaluation order (and
        // argument order) as `build_cov`.
        let x_new = &self.x[n];
        let mut row: Vec<f64> = self.x[..n]
            .iter()
            .map(|xj| self.kernel.eval(x_new, xj))
            .collect();
        row.push(self.kernel.eval(x_new, x_new) + self.kernel.hyper.noise_var);
        match self.chol.extend_with_row(&row) {
            Ok(()) => return Ok(UpdateOutcome::Incremental),
            Err(LinalgError::NotPositiveDefinite { .. }) => {}
            Err(e) => return Err(e.into()),
        }
        // The stored jitter level is invalidated: rerun the full ladder.
        let dist = training_distances(self.kernel.kinds(), &self.x);
        let k = Self::build_cov(&self.kernel, &dist)?;
        self.chol = Cholesky::decompose(&k)?;
        Ok(UpdateOutcome::JitterInvalidated)
    }

    /// Recompute standardization, `alpha`, and the LML from the raw
    /// targets and the current factor — the same expressions (and
    /// floating-point operation order) as a full fit.
    fn refresh_posterior(&mut self) -> Result<(), GpError> {
        self.y_mean = otune_linalg::mean(&self.y);
        self.y_std = {
            let s = otune_linalg::std_dev(&self.y);
            if s > 1e-12 {
                s
            } else {
                1.0
            }
        };
        let ys: Vec<f64> = self
            .y
            .iter()
            .map(|v| (v - self.y_mean) / self.y_std)
            .collect();
        self.alpha = self.chol.solve(&ys)?;
        self.lml = -0.5 * otune_linalg::dot(&ys, &self.alpha)
            - 0.5 * self.chol.log_det()
            - self.y.len() as f64 / 2.0 * (2.0 * std::f64::consts::PI).ln();
        Ok(())
    }

    /// Full pooled hyperparameter re-search, warm-started from the
    /// current winner.
    fn research(
        &mut self,
        cfg: GpConfig,
        pool: &Pool,
        telemetry: &Telemetry,
    ) -> Result<(), GpError> {
        let warm = GpConfig {
            warm_hyper: Some(self.kernel.hyper),
            ..cfg
        };
        *self = Self::fit(
            self.kernel.kinds().to_vec(),
            self.x.clone(),
            &self.y,
            warm,
            pool,
            telemetry,
        )?;
        Ok(())
    }

    /// Number of observations.
    pub fn n(&self) -> usize {
        self.x.len()
    }

    /// The fitted kernel (exposes hyperparameters).
    pub fn kernel(&self) -> &MixedKernel {
        &self.kernel
    }

    /// Log marginal likelihood of the fitted model (standardized targets).
    pub fn log_marginal_likelihood(&self) -> f64 {
        self.lml
    }

    /// Number of jitter retries paid when factoring the selected
    /// covariance matrix (0 when the jitter-free attempt succeeded).
    pub fn jitter_retries(&self) -> u32 {
        self.chol.jitter_retries()
    }

    /// Jitter currently baked into the cached factor.
    pub fn jitter(&self) -> f64 {
        self.chol.jitter()
    }

    /// The encoded training inputs.
    pub fn train_x(&self) -> &[Vec<f64>] {
        &self.x
    }

    /// Posterior predictive mean and variance at `x` (original target scale).
    ///
    /// Allocation-free after warm-up: reuses a thread-local
    /// [`GpScratch`]. Hot loops that want explicit control (e.g. the AGD
    /// central-difference loop) can hold their own scratch and call
    /// [`GaussianProcess::predict_with_scratch`] directly.
    pub fn predict(&self, x: &[f64]) -> (f64, f64) {
        thread_local! {
            static SCRATCH: RefCell<GpScratch> = RefCell::new(GpScratch::default());
        }
        SCRATCH.with(|s| self.predict_with_scratch(x, &mut s.borrow_mut()))
    }

    /// [`GaussianProcess::predict`] with a caller-provided scratch buffer.
    pub fn predict_with_scratch(&self, x: &[f64], scratch: &mut GpScratch) -> (f64, f64) {
        debug_assert_eq!(x.len(), self.kernel.dim());
        scratch.kx.clear();
        scratch
            .kx
            .extend(self.x.iter().map(|xi| self.kernel.eval(xi, x)));
        let mean_std = otune_linalg::dot(&scratch.kx, &self.alpha);
        // v = L⁻¹ kx; σ² = k(x,x) − vᵀv.
        self.chol
            .solve_lower_into(&scratch.kx, &mut scratch.v)
            .expect("dimension verified at fit time");
        (
            mean_std * self.y_std + self.y_mean,
            self.variance_from(otune_linalg::dot(&scratch.v, &scratch.v)),
        )
    }

    /// The posterior variance on the target scale from `s = ‖L⁻¹k‖²`:
    /// `(k(x,x) + τ² − s)` floored at `1e-12`, times `y_std²`. Every
    /// variance path — scalar, batched, tiled and the tile bounds — goes
    /// through this one expression. It is nondecreasing in `prior − s`
    /// under IEEE rounding, which is what lets a bound on `s` bound the
    /// computed variance.
    fn variance_from(&self, s: f64) -> f64 {
        let prior = self.kernel.diag() + self.kernel.hyper.noise_var;
        (prior - s).max(1e-12) * self.y_std * self.y_std
    }

    /// Posterior mean only: `k(X, x)·α` on the original target scale.
    /// The same terms summed in the same order as the mean of
    /// [`GaussianProcess::predict`], so the result is bitwise
    /// `predict(x).0` — without the `O(n²)` forward solve the variance
    /// needs.
    pub fn predict_mean(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.kernel.dim());
        let mean_std: f64 = self
            .x
            .iter()
            .zip(&self.alpha)
            .map(|(xi, a)| self.kernel.eval(xi, x) * a)
            .sum();
        mean_std * self.y_std + self.y_mean
    }

    /// Batch prediction over `xs`. Bitwise-identical to calling
    /// [`GaussianProcess::predict`] per point (see
    /// [`GaussianProcess::predict_batch_into`]).
    #[doc(hidden)]
    pub fn predict_batch(&self, xs: Rows<'_>) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        self.predict_batch_into(xs, &mut GpBatchScratch::default(), &mut out);
        out
    }

    /// The unpruned batched posterior, kept as the bitwise oracle for the
    /// tiled path ([`GaussianProcess::kernel_tile`] and friends): build
    /// the cross-kernel matrix `Kc = K(X, X_cand)` once, accumulate
    /// `μ = Kcᵀ α` row by row, then run one multi-RHS forward
    /// substitution `V = L⁻¹ Kc` in place and read
    /// `σ²_j = k(x,x) + τ² − Σᵢ V[i,j]²`.
    ///
    /// Per candidate `j` this performs the *same* floating-point
    /// operations in the *same* order as the scalar path — the kernel
    /// column, the α-dot, the forward-substitution recurrence, and the
    /// squared-norm accumulation all walk training index `i` ascending —
    /// so batched results are bitwise-identical to scalar `predict`.
    #[doc(hidden)]
    pub fn predict_batch_into(
        &self,
        xs: Rows<'_>,
        scratch: &mut GpBatchScratch,
        out: &mut Vec<(f64, f64)>,
    ) {
        let n = self.x.len();
        let m = xs.len();
        out.clear();
        if m == 0 {
            return;
        }
        if scratch.kc.shape() != (n, m) {
            scratch.kc = Matrix::zeros(n, m);
        }
        scratch.mean.clear();
        scratch.mean.resize(m, 0.0);
        self.kernel
            .pack_rows(self.x.iter().map(Vec::as_slice), &mut scratch.train_packed);
        self.kernel.pack_rows(xs.iter(), &mut scratch.cand_packed);
        self.kernel
            .hamming_table_into(scratch.cand_packed.n_cat(), &mut scratch.hamming);
        for i in 0..n {
            let alpha_i = self.alpha[i];
            let row = scratch.kc.row_mut(i);
            self.kernel.eval_rows_packed(
                scratch.train_packed.row(i),
                &scratch.cand_packed,
                m,
                &scratch.hamming,
                row,
            );
            for (mj, &k) in scratch.mean.iter_mut().zip(row.iter()) {
                *mj += k * alpha_i;
            }
        }
        // Kc now holds the cross-kernel; overwrite it with V = L⁻¹ Kc.
        self.chol
            .solve_lower_batch_in_place(&mut scratch.kc)
            .expect("dimension verified at fit time");
        scratch.sq_norm.clear();
        scratch.sq_norm.resize(m, 0.0);
        for i in 0..n {
            let row = scratch.kc.row(i);
            for (acc, &v) in scratch.sq_norm.iter_mut().zip(row) {
                *acc += v * v;
            }
        }
        out.extend((0..m).map(|j| {
            (
                scratch.mean[j] * self.y_std + self.y_mean,
                self.variance_from(scratch.sq_norm[j]),
            )
        }));
    }

    /// This GP's kernel rows against `dist`, a distance tile over its
    /// training rows, at its own hyperparameters. In the same pass, each
    /// candidate column accumulates the posterior mean `Σᵢ kᵢ αᵢ` in
    /// training order (the order of [`GaussianProcess::predict`]) and
    /// keeps `maxᵢ kᵢ²` for [`GaussianProcess::tile_var_bounds`]. Every
    /// kernel value is bitwise [`MixedKernel::eval`]'s.
    pub fn kernel_tile(&self, dist: &DistanceTile, out: &mut KernelTile) {
        debug_assert_eq!(dist.rows(), self.x.len());
        let (n, w) = (dist.rows(), dist.width());
        let KernelTile {
            rows,
            width,
            k,
            mean,
            max_k2,
            hamming,
        } = out;
        *rows = n;
        *width = w;
        self.kernel.hamming_table_into(dist.n_cat(), hamming);
        k.clear();
        k.resize(n * w, 0.0);
        mean.clear();
        mean.resize(w, 0.0);
        max_k2.clear();
        max_k2.resize(w, 0.0);
        for (i, &alpha_i) in self.alpha.iter().enumerate() {
            let row = &mut k[i * w..(i + 1) * w];
            dist.kernel_row(i, w, &self.kernel.hyper, hamming, |j0, vals| {
                row[j0..j0 + LANES].copy_from_slice(vals);
                for t in 0..LANES {
                    mean[j0 + t] += vals[t] * alpha_i;
                    max_k2[j0 + t] = max_k2[j0 + t].max(vals[t] * vals[t]);
                }
            });
        }
    }

    /// The posterior mean at column `j` of this GP's `kt`, on the target
    /// scale — bitwise `predict(x).0`.
    pub fn tile_mean(&self, kt: &KernelTile, j: usize) -> f64 {
        kt.mean[j] * self.y_std + self.y_mean
    }

    /// Bounds `(lb, ub)` on the posterior variance at column `j` of this
    /// GP's `kt`, without the `O(n²)` solve: `lb ≤ predict(x).1 ≤ ub`.
    ///
    /// With `s = ‖L⁻¹k‖² = kᵀ(K + (τ² + jitter)I)⁻¹k`:
    /// * conditioning on the single most correlated training point gives
    ///   `s ≥ maxᵢ kᵢ² / (σ_f² + τ² + jitter)` (Cauchy–Schwarz against
    ///   the diagonal), hence the upper bound;
    /// * the noise-free posterior variance is non-negative, so
    ///   `s ≤ σ_f²`, hence the lower bound.
    ///
    /// Both carry the relative slack `VAR_BOUND_SLACK` (1e-6) on `s` for
    /// the rounding of the computed `s`, and both go through the exact
    /// path's variance expression, whose IEEE rounding is monotone — so
    /// they bound the *computed* variance, bit for bit.
    pub fn tile_var_bounds(&self, kt: &KernelTile, j: usize) -> (f64, f64) {
        let h = &self.kernel.hyper;
        let s_lo = kt.max_k2[j] / (h.signal_var + h.noise_var + self.chol.jitter())
            * (1.0 - VAR_BOUND_SLACK);
        let s_hi = h.signal_var * (1.0 + VAR_BOUND_SLACK);
        (self.variance_from(s_hi), self.variance_from(s_lo))
    }

    /// Exact posterior variances at columns `cols` of this GP's `kt`,
    /// into `out` in `cols` order: the columns are gathered, solved
    /// through one multi-RHS forward substitution, and their squared
    /// norms summed in training order — bitwise `predict(x).1`.
    pub fn tile_vars(&self, kt: &KernelTile, cols: &[usize], out: &mut Vec<f64>) {
        out.clear();
        if cols.is_empty() {
            return;
        }
        let (n, c) = (kt.rows, cols.len());
        let mut gathered = Vec::with_capacity(n * c);
        for row in kt.k.chunks_exact(kt.width) {
            gathered.extend(cols.iter().map(|&j| row[j]));
        }
        let mut v = Matrix::from_vec(n, c, gathered).expect("n × c gathered entries");
        self.chol
            .solve_lower_batch_in_place(&mut v)
            .expect("dimension verified at fit time");
        let mut sq_norm = vec![0.0; c];
        for i in 0..n {
            for (acc, &x) in sq_norm.iter_mut().zip(v.row(i)) {
                *acc += x * x;
            }
        }
        out.extend(sq_norm.into_iter().map(|s| self.variance_from(s)));
    }
}

/// The training × training distance sums of `x`: `x` packed as both
/// sides of one distance tile.
fn training_distances(kinds: &[FeatureKind], x: &[Vec<f64>]) -> DistanceTile {
    let kernel = MixedKernel::new(kinds.to_vec(), KernelHyper::default());
    let mut train = PackedSet::default();
    kernel.pack_rows(x.iter().map(Vec::as_slice), &mut train);
    let mut tile = CandidateTile::default();
    tile.pack(kinds, x.iter().map(Vec::as_slice));
    let mut dist = DistanceTile::default();
    dist.compute(&train, &tile);
    dist
}

/// One GP's kernel rows against a [`DistanceTile`]
/// ([`GaussianProcess::kernel_tile`]): the `training rows × tile` kernel
/// values plus, per candidate column, the posterior-mean accumulation and
/// `maxᵢ kᵢ²`. Reused as scratch.
#[derive(Debug, Clone, Default)]
pub struct KernelTile {
    rows: usize,
    width: usize,
    k: Vec<f64>,
    mean: Vec<f64>,
    max_k2: Vec<f64>,
    hamming: Vec<f64>,
}

impl KernelTile {
    /// Kernel values of training row `i` against the tile's candidates
    /// (padded to a whole lane block).
    pub fn row(&self, i: usize) -> &[f64] {
        &self.k[i * self.width..(i + 1) * self.width]
    }
}

/// Reusable buffers for scalar [`GaussianProcess::predict_with_scratch`].
#[derive(Debug, Default, Clone)]
pub struct GpScratch {
    kx: Vec<f64>,
    v: Vec<f64>,
}

/// Reusable buffers for [`GaussianProcess::predict_batch_into`].
#[derive(Debug, Clone)]
pub struct GpBatchScratch {
    kc: Matrix,
    mean: Vec<f64>,
    sq_norm: Vec<f64>,
    train_packed: PackedSet,
    cand_packed: PackedSet,
    hamming: Vec<f64>,
}

impl Default for GpBatchScratch {
    fn default() -> Self {
        GpBatchScratch {
            kc: Matrix::zeros(0, 0),
            mean: Vec::new(),
            sq_norm: Vec::new(),
            train_packed: PackedSet::default(),
            cand_packed: PackedSet::default(),
            hamming: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`GaussianProcess::fit`] on the environment's pool, untraced.
    fn fit(
        kinds: Vec<FeatureKind>,
        x: Vec<Vec<f64>>,
        y: &[f64],
        cfg: GpConfig,
    ) -> Result<GaussianProcess, GpError> {
        GaussianProcess::fit(kinds, x, y, cfg, &Pool::from_env(), &Telemetry::disabled())
    }

    fn numeric_kinds(d: usize) -> Vec<FeatureKind> {
        vec![FeatureKind::Numeric; d]
    }

    fn grid_1d(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect()
    }

    #[test]
    fn interpolates_smooth_function() {
        let x = grid_1d(12);
        let y: Vec<f64> = x.iter().map(|v| (v[0] * 6.0).sin()).collect();
        let gp = fit(numeric_kinds(1), x, &y, GpConfig::default()).unwrap();
        for test in [0.15, 0.43, 0.77] {
            let (mu, var) = gp.predict(&[test]);
            assert!((mu - (test * 6.0).sin()).abs() < 0.15, "μ({test}) = {mu}");
            assert!(var >= 0.0);
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let x = vec![vec![0.4], vec![0.5], vec![0.6]];
        let y = vec![1.0, 1.1, 0.9];
        let gp = fit(
            numeric_kinds(1),
            x,
            &y,
            GpConfig {
                optimize_hypers: false,
                ..GpConfig::default()
            },
        )
        .unwrap();
        let (_, var_near) = gp.predict(&[0.5]);
        let (_, var_far) = gp.predict(&[0.0]);
        assert!(var_far > var_near * 2.0, "{var_far} vs {var_near}");
    }

    #[test]
    fn predictions_near_training_points_match_targets() {
        let x = grid_1d(8);
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v[0] + 1.0).collect();
        let gp = fit(numeric_kinds(1), x.clone(), &y, GpConfig::default()).unwrap();
        for (xi, yi) in x.iter().zip(&y) {
            let mu = gp.predict_mean(xi);
            assert!((mu - yi).abs() < 0.1, "{mu} vs {yi}");
        }
    }

    #[test]
    fn handles_constant_targets() {
        let x = grid_1d(5);
        let y = vec![42.0; 5];
        let gp = fit(numeric_kinds(1), x, &y, GpConfig::default()).unwrap();
        let (mu, var) = gp.predict(&[0.33]);
        assert!((mu - 42.0).abs() < 1e-6);
        assert!(var.is_finite());
    }

    #[test]
    fn errors_on_bad_input() {
        assert!(matches!(
            fit(numeric_kinds(1), vec![], &[], GpConfig::default()),
            Err(GpError::Empty)
        ));
        assert!(matches!(
            fit(
                numeric_kinds(2),
                vec![vec![0.0]],
                &[1.0],
                GpConfig::default()
            ),
            Err(GpError::ShapeMismatch)
        ));
        assert!(matches!(
            fit(
                numeric_kinds(1),
                vec![vec![0.0], vec![1.0]],
                &[1.0],
                GpConfig::default()
            ),
            Err(GpError::ShapeMismatch)
        ));
        assert!(matches!(
            fit(
                numeric_kinds(1),
                vec![vec![0.0]],
                &[f64::NAN],
                GpConfig::default()
            ),
            Err(GpError::NonFiniteTarget)
        ));
    }

    #[test]
    fn hyperparameter_fitting_improves_lml() {
        let x = grid_1d(15);
        let y: Vec<f64> = x.iter().map(|v| (v[0] * 12.0).sin()).collect();
        let fixed = fit(
            numeric_kinds(1),
            x.clone(),
            &y,
            GpConfig {
                optimize_hypers: false,
                ..GpConfig::default()
            },
        )
        .unwrap();
        let fitted = fit(numeric_kinds(1), x, &y, GpConfig::default()).unwrap();
        assert!(fitted.log_marginal_likelihood() >= fixed.log_marginal_likelihood());
    }

    #[test]
    fn mixed_kernel_distinguishes_categories() {
        // y depends on the categorical dim; the GP should track it.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..10 {
            let num = i as f64 / 9.0;
            x.push(vec![num, 0.0]);
            y.push(1.0 + 0.1 * num);
            x.push(vec![num, 1.0]);
            y.push(5.0 + 0.1 * num);
        }
        let kinds = vec![FeatureKind::Numeric, FeatureKind::Categorical];
        let gp = fit(kinds, x, &y, GpConfig::default()).unwrap();
        let lo = gp.predict_mean(&[0.5, 0.0]);
        let hi = gp.predict_mean(&[0.5, 1.0]);
        assert!(hi - lo > 2.0, "categorical split visible: {lo} vs {hi}");
    }

    #[test]
    fn datasize_dimension_is_smooth() {
        // y = datasize effect; SE kernel should extrapolate smoothly nearby.
        let kinds = vec![FeatureKind::Numeric, FeatureKind::DataSize];
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..12 {
            let ds = i as f64 / 11.0;
            x.push(vec![0.5, ds]);
            y.push(10.0 * ds);
        }
        let gp = fit(kinds, x, &y, GpConfig::default()).unwrap();
        let a = gp.predict_mean(&[0.5, 0.35]);
        assert!((a - 3.5).abs() < 0.7, "{a}");
    }

    #[test]
    fn noisy_observations_are_smoothed() {
        // Duplicated x with conflicting y must not explode.
        let x = vec![vec![0.5], vec![0.5], vec![0.5], vec![0.2], vec![0.8]];
        let y = vec![1.0, 1.4, 0.6, 0.0, 2.0];
        let gp = fit(numeric_kinds(1), x, &y, GpConfig::default()).unwrap();
        let (mu, var) = gp.predict(&[0.5]);
        assert!(mu > 0.5 && mu < 1.5, "{mu}");
        assert!(var > 0.0);
    }

    #[test]
    fn batch_matches_single() {
        let x = grid_1d(6);
        let y: Vec<f64> = x.iter().map(|v| v[0] * v[0]).collect();
        let gp = fit(numeric_kinds(1), x, &y, GpConfig::default()).unwrap();
        let batch = gp.predict_batch(Rows::new(&[0.1, 0.9], 1));
        assert_eq!(batch[0], gp.predict(&[0.1]));
        assert_eq!(batch[1], gp.predict(&[0.9]));
    }

    #[test]
    fn deterministic_fit() {
        let x = grid_1d(10);
        let y: Vec<f64> = x.iter().map(|v| (v[0] * 3.0).cos()).collect();
        let a = fit(numeric_kinds(1), x.clone(), &y, GpConfig::default()).unwrap();
        let b = fit(numeric_kinds(1), x, &y, GpConfig::default()).unwrap();
        assert_eq!(a.predict(&[0.37]), b.predict(&[0.37]));
    }
}
