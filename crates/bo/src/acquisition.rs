//! Acquisition functions: EI (Eq. 3), probability of feasibility (Eq. 7),
//! EI with constraints (Eq. 6).

use otune_gp::{norm_cdf, norm_pdf};

/// Expected Improvement of a *minimization* problem at a point with
/// posterior `(mean, var)` given the best observed value `y_best`:
///
/// `EI(x) = σ(x)·(γ·Φ(γ) + φ(γ))` with `γ = (y* − μ)/σ` (Eq. 3).
pub fn expected_improvement(mean: f64, var: f64, y_best: f64) -> f64 {
    let sigma = var.max(0.0).sqrt();
    if sigma < 1e-12 {
        return (y_best - mean).max(0.0);
    }
    let gamma = (y_best - mean) / sigma;
    (sigma * (gamma * norm_cdf(gamma) + norm_pdf(gamma))).max(0.0)
}

/// An upper bound on the *computed* [`expected_improvement`]`(mean, v,
/// y_best)` for every variance `v ≤ var_ub`.
///
/// Exact EI grows with σ (`∂EI/∂σ = φ(γ) > 0`), but the computed one is
/// not exactly monotone: `norm_cdf` uses the A&S 7.1.26 `erf` (|ε| <
/// 1.5e-7, so Φ is off by at most 7.5e-8), which moves EI by at most
/// `σ·|γ|·7.5e-8 = |y_best − μ|·7.5e-8`, and the rest of the expression
/// rounds by a few ulps of `|y_best − μ|`, `σ` and EI. The bound is
/// therefore EI at `var_ub` plus that error twice (at `v` and at
/// `var_ub`) plus a relative rounding term far above the ulp count. Every
/// feasibility factor of EIC is at most 1, so it bounds the computed EIC
/// too.
pub(crate) fn expected_improvement_bound(mean: f64, var_ub: f64, y_best: f64) -> f64 {
    let ei = expected_improvement(mean, var_ub, y_best);
    let gap = (y_best - mean).abs();
    ei + 2.0 * gap * 7.5e-8 + 1e-12 * (gap + var_ub.max(0.0).sqrt() + ei)
}

/// `Pr[metric(x) ≤ threshold]` from the metric surrogate's posterior
/// `(mean, var)` (Eq. 7).
pub fn prob_below(mean: f64, var: f64, threshold: f64) -> f64 {
    let sigma = var.max(0.0).sqrt();
    if sigma < 1e-12 {
        return if mean <= threshold { 1.0 } else { 0.0 };
    }
    norm_cdf((threshold - mean) / sigma)
}

/// EI with constraints (Eq. 6): `EIC(x) = EI(x) · Π_i Pr[c_i(x) ≤ τ_i]`.
///
/// `constraint_probs` are the per-constraint feasibility probabilities.
pub fn eic(ei: f64, constraint_probs: &[f64]) -> f64 {
    ei * constraint_probs.iter().product::<f64>()
}

/// Lower confidence bound for minimization: `LCB(x) = μ(x) − κ·σ(x)`.
/// Returned negated so that, like the other acquisitions, *larger is
/// better* for the maximizer. An alternative to EI the paper's framework
/// can be instantiated with (OpenBox exposes the same choice).
pub fn lower_confidence_bound(mean: f64, var: f64, kappa: f64) -> f64 {
    debug_assert!(kappa >= 0.0);
    -(mean - kappa * var.max(0.0).sqrt())
}

/// Probability of improvement over the incumbent (minimization):
/// `PI(x) = Pr[y < y* − ξ]`. The greediest of the classic acquisitions;
/// `xi` adds a margin that restores some exploration.
pub fn probability_of_improvement(mean: f64, var: f64, y_best: f64, xi: f64) -> f64 {
    let sigma = var.max(0.0).sqrt();
    if sigma < 1e-12 {
        return if mean < y_best - xi { 1.0 } else { 0.0 };
    }
    norm_cdf((y_best - xi - mean) / sigma)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ei_positive_when_mean_below_best() {
        let better = expected_improvement(0.0, 1.0, 1.0);
        let worse = expected_improvement(2.0, 1.0, 1.0);
        assert!(better > worse);
        assert!(better > 0.0);
    }

    #[test]
    fn ei_grows_with_uncertainty() {
        let confident = expected_improvement(1.5, 0.01, 1.0);
        let uncertain = expected_improvement(1.5, 4.0, 1.0);
        assert!(uncertain > confident, "{uncertain} vs {confident}");
    }

    #[test]
    fn ei_zero_variance_reduces_to_plain_improvement() {
        assert_eq!(expected_improvement(0.3, 0.0, 1.0), 0.7);
        assert_eq!(expected_improvement(1.3, 0.0, 1.0), 0.0);
    }

    #[test]
    fn ei_closed_form_sanity() {
        // γ = 0: EI = σ·φ(0).
        let ei = expected_improvement(1.0, 4.0, 1.0);
        assert!((ei - 2.0 * 0.3989422804).abs() < 1e-6);
    }

    #[test]
    fn ei_bound_dominates_every_smaller_variance() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..20_000 {
            let mean = (next() - 0.5) * 20.0;
            let y_best = (next() - 0.5) * 20.0;
            let var_ub = 10f64.powf(next() * 16.0 - 14.0);
            let bound = expected_improvement_bound(mean, var_ub, y_best);
            for frac in [1.0, 0.999_999, 0.9, 0.5, 0.1, 1e-6, 1e-20, 0.0] {
                let ei = expected_improvement(mean, var_ub * frac, y_best);
                assert!(ei <= bound, "EI({mean}, {var_ub}·{frac}, {y_best})");
            }
        }
    }

    #[test]
    fn pof_limits() {
        assert!((prob_below(0.0, 1.0, 0.0) - 0.5).abs() < 1e-7);
        assert!(prob_below(0.0, 1.0, 10.0) > 0.999);
        assert!(prob_below(10.0, 1.0, 0.0) < 0.001);
        assert_eq!(prob_below(1.0, 0.0, 2.0), 1.0);
        assert_eq!(prob_below(3.0, 0.0, 2.0), 0.0);
    }

    #[test]
    fn eic_multiplies_probabilities() {
        assert_eq!(eic(2.0, &[0.5, 0.5]), 0.5);
        assert_eq!(eic(2.0, &[]), 2.0);
        assert_eq!(eic(2.0, &[0.0]), 0.0);
    }

    #[test]
    fn lcb_prefers_low_mean_and_high_uncertainty() {
        let base = lower_confidence_bound(1.0, 1.0, 2.0);
        assert!(
            lower_confidence_bound(0.5, 1.0, 2.0) > base,
            "lower mean wins"
        );
        assert!(
            lower_confidence_bound(1.0, 4.0, 2.0) > base,
            "more uncertainty wins"
        );
        // κ = 0 reduces to pure exploitation of the mean.
        assert_eq!(lower_confidence_bound(3.0, 9.0, 0.0), -3.0);
    }

    #[test]
    fn pi_limits_and_monotonicity() {
        // Mean far below the incumbent → improvement nearly certain.
        assert!(probability_of_improvement(-10.0, 1.0, 0.0, 0.0) > 0.999);
        // Mean far above → nearly impossible.
        assert!(probability_of_improvement(10.0, 1.0, 0.0, 0.0) < 0.001);
        // ξ shrinks the probability.
        let loose = probability_of_improvement(0.0, 1.0, 0.5, 0.0);
        let tight = probability_of_improvement(0.0, 1.0, 0.5, 0.4);
        assert!(tight < loose);
        // Zero variance degenerates to an indicator.
        assert_eq!(probability_of_improvement(0.0, 0.0, 1.0, 0.0), 1.0);
        assert_eq!(probability_of_improvement(2.0, 0.0, 1.0, 0.0), 0.0);
    }
}
