//! The tiled screen-and-score pass against the unpruned path.
//!
//! `maximize_eic` decides the safe screen and the EIC ranking from
//! variance bounds and solves `L⁻¹k` only where they cannot decide. The
//! oracle here is the unpruned path: every candidate's posterior from
//! `predict_batch` (the batched oracle, bitwise scalar `predict`) for
//! every region, objective member and constraint, violations summed in
//! region order, first-max EIC over the safe candidates and first-min
//! violation when none is safe. On random spaces, GPs with random
//! hyperparameters and jitter levels, plain-GP or 1–4-member mixture
//! objectives, 0–2 regions, constraints that share a region's surrogate
//! or not, context columns and pool widths 1/2/4, both must agree on the
//! winner, its EIC bits, `from_safe_region`, the
//! `safe_region_rejections` count and `eic_evals_per_iter`.

use otune_bo::{
    distinct_feasible, eic, expected_improvement, fill_candidates, maximize_eic, prob_below,
    surrogate_kinds, CandidateParams, EicObjective, Predictor, SafeRegion,
};
use otune_gp::{GaussianProcess, GpConfig, KernelHyper, Rows};
use otune_pool::Pool;
use otune_space::{CandidateRows, ConfigSpace, Configuration, Parameter, Subspace};
use otune_telemetry::{metric, Telemetry};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Eq. 12's shape over 1–4 configuration-only members: each member
/// standardized by its own scale, weighted, and mapped back to the
/// output scale, in member order.
struct Mixture {
    members: Vec<(GaussianProcess, f64, f64, f64)>,
    scale: (f64, f64),
}

impl Predictor for Mixture {
    fn members(&self) -> Vec<&GaussianProcess> {
        self.members.iter().map(|(gp, ..)| gp).collect()
    }

    fn combine(&self, member_preds: &[(f64, f64)]) -> (f64, f64) {
        let mut mean_z = 0.0;
        let mut var_z = 0.0;
        for ((_, w, mu, sd), &(m, v)) in self.members.iter().zip(member_preds) {
            mean_z += w * (m - mu) / sd;
            var_z += w * w * v / (sd * sd);
        }
        let (mu_t, sd_t) = self.scale;
        (mean_z * sd_t + mu_t, (var_z * sd_t * sd_t).max(1e-12))
    }
}

/// A space of `n` float, integer, categorical and boolean parameters —
/// floats only when every sampled configuration must be distinct.
fn space(rng: &mut StdRng, floats_only: bool) -> ConfigSpace {
    let n = rng.gen_range(2..=8);
    ConfigSpace::new(
        (0..n)
            .map(|i| {
                let name = format!("p{i}");
                match if floats_only { 0 } else { rng.gen_range(0..4) } {
                    0 => Parameter::float(&name, 0.0, 1.0, 0.5),
                    1 => Parameter::int(&name, 0, 20, 10),
                    2 => Parameter::categorical(&name, &["a", "b", "c"], 0),
                    _ => Parameter::boolean(&name, false),
                }
            })
            .collect(),
    )
}

/// A GP over `rows` with random fixed hyperparameters; noise from e^-30
/// (so duplicated rows force the jitter ladder) to e^-1.
fn gp(kinds: &[otune_gp::FeatureKind], rows: &[Vec<f64>], rng: &mut StdRng) -> GaussianProcess {
    let shift: f64 = rng.gen_range(-2.0..2.0);
    let y: Vec<f64> = rows
        .iter()
        .map(|x| {
            x.iter()
                .enumerate()
                .map(|(d, v)| ((d as f64 + 1.0) * v + shift).sin())
                .sum::<f64>()
                + rng.gen_range(-0.1..0.1)
        })
        .collect();
    let hyper = KernelHyper::from_log([
        rng.gen_range(-2.5..1.5),
        rng.gen_range(-1.5..2.0),
        rng.gen_range(-2.5..1.5),
        rng.gen_range(-1.0..1.5),
        rng.gen_range(-30.0..-1.0),
    ]);
    let cfg = GpConfig {
        optimize_hypers: false,
        warm_hyper: Some(hyper),
        ..GpConfig::default()
    };
    GaussianProcess::fit(
        kinds.to_vec(),
        rows.to_vec(),
        &y,
        cfg,
        &Pool::from_env(),
        &Telemetry::disabled(),
    )
    .unwrap()
}

/// `n` training rows: sampled configurations plus context, with some
/// rows repeated.
fn training_rows(space: &ConfigSpace, n: usize, n_ctx: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
    for i in 0..n {
        if i > 2 && rng.gen_bool(0.15) {
            let again = rows[rng.gen_range(0..i)].clone();
            rows.push(again);
            continue;
        }
        let mut x = space.encode(&space.sample(rng));
        x.extend((0..n_ctx).map(|_| rng.gen::<f64>()));
        rows.push(x);
    }
    rows
}

/// The unpruned path's choice over `cands`: (winner position, EIC,
/// from the safe region, rejections, EIC evaluations).
fn oracle(
    cands: Rows<'_>,
    objective: &EicObjective<'_>,
    regions: &[SafeRegion<'_>],
) -> (usize, f64, bool, u64, u64) {
    let m = cands.len();
    let mut violations = vec![0.0; m];
    for region in regions {
        for (acc, (mean, var)) in violations
            .iter_mut()
            .zip(region.surrogate().predict_batch(cands))
        {
            *acc += region.violation_from(mean, var);
        }
    }
    let members: Vec<Vec<(f64, f64)>> = objective
        .objective_gp
        .members()
        .iter()
        .map(|gp| gp.predict_batch(cands.prefix(gp.kernel().dim())))
        .collect();
    let constraints: Vec<Vec<(f64, f64)>> = objective
        .constraints
        .iter()
        .map(|(gp, _)| gp.predict_batch(cands))
        .collect();
    let mut best: Option<(usize, f64)> = None;
    let mut least: Option<(usize, f64)> = None;
    let mut evals = 0;
    for (j, &violation) in violations.iter().enumerate() {
        if violation <= 0.0 {
            evals += 1;
            let preds: Vec<(f64, f64)> = members.iter().map(|p| p[j]).collect();
            let (mean, var) = objective.objective_gp.combine(&preds);
            let probs: Vec<f64> = constraints
                .iter()
                .zip(&objective.constraints)
                .map(|(p, (_, thr))| prob_below(p[j].0, p[j].1, *thr))
                .collect();
            let v = eic(expected_improvement(mean, var, objective.y_best), &probs);
            if best.is_none_or(|(_, b)| v > b) {
                best = Some((j, v));
            }
        } else if least.is_none_or(|(_, b)| violation < b) {
            least = Some((j, violation));
        }
    }
    let rejections = (m - evals) as u64;
    match best {
        Some((j, v)) => (j, v, true, rejections, evals as u64),
        None => (least.unwrap().0, 0.0, false, rejections, evals as u64),
    }
}

/// One random case through the tiled pass at pool widths 1, 2 and 4,
/// each compared to the oracle; returns the number of candidates.
fn check(seed: u64, params: CandidateParams, floats_only: bool) -> Result<usize, TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let space = space(&mut rng, floats_only);
    let n_ctx = rng.gen_range(0..=2);
    let context: Vec<f64> = (0..n_ctx).map(|_| rng.gen()).collect();
    let kinds = surrogate_kinds(&space, n_ctx);
    let config_kinds = surrogate_kinds(&space, 0);

    let n = rng.gen_range(3..40);
    let rows = training_rows(&space, n, n_ctx, &mut rng);
    let plain = gp(&kinds, &rows, &mut rng);
    let mixture = Mixture {
        members: (0..rng.gen_range(1..=4))
            .map(|_| {
                let own = training_rows(&space, rng.gen_range(3..30), 0, &mut rng);
                (
                    gp(&config_kinds, &own, &mut rng),
                    rng.gen_range(0.05..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(0.2..3.0),
                )
            })
            .collect(),
        scale: (rng.gen_range(-1.0..1.0), rng.gen_range(0.2..3.0)),
    };
    let use_mixture = rng.gen_bool(0.5);

    // Region surrogates: on the objective's rows (one shared distance
    // pass) or on rows of their own.
    let region_gps: Vec<GaussianProcess> = (0..rng.gen_range(0..=2))
        .map(|_| {
            if rng.gen_bool(0.5) {
                gp(&kinds, &rows, &mut rng)
            } else {
                let own = training_rows(&space, rng.gen_range(3..40), n_ctx, &mut rng);
                gp(&kinds, &own, &mut rng)
            }
        })
        .collect();
    let thresholds: Vec<f64> = region_gps
        .iter()
        .map(|g| {
            let means: Vec<f64> = g.train_x().iter().map(|x| g.predict_mean(x)).collect();
            let lo = means.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = means.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            // From below every mean (nothing safe) to above all of them.
            lo + (hi - lo + 1.0) * rng.gen_range(-0.3..1.2)
        })
        .collect();
    let regions: Vec<SafeRegion<'_>> = region_gps
        .iter()
        .zip(&thresholds)
        .map(|(g, &t)| SafeRegion::new(g, t, rng.gen_range(0.1..1.0)))
        .collect();
    let extra = gp(&kinds, &rows, &mut rng);
    let constraints: Vec<(&GaussianProcess, f64)> = (0..rng.gen_range(0..=2))
        .map(|_| {
            let g = match region_gps.len() {
                0 => &extra,
                k if rng.gen_bool(0.6) => &region_gps[rng.gen_range(0..k)],
                _ => &extra,
            };
            (g, g.predict_mean(&rows[0]) + rng.gen_range(-1.0..1.0))
        })
        .collect();
    let objective = EicObjective {
        objective_gp: if use_mixture { &mixture } else { &plain },
        y_best: rng.gen_range(-3.0..3.0),
        constraints,
    };

    let sub = Subspace::full(&space, space.default_configuration()).unwrap();
    let incumbent = space.sample(&mut rng);
    let run_seed = rng.gen::<u64>();
    let mut cand_rng = StdRng::seed_from_u64(run_seed);
    let mut cand_rows = CandidateRows::default();
    fill_candidates(
        &sub,
        &context,
        Some(&incumbent),
        params,
        &mut cand_rng,
        &mut cand_rows,
    );
    let kept = distinct_feasible(&sub, &cand_rows, None);
    let matrix = Rows::new(cand_rows.encoded(), cand_rows.width());
    let (j, want_eic, want_safe, want_rejections, want_evals) =
        oracle(matrix.select(&kept), &objective, &regions);
    let want_config: Configuration = space.decode_words(cand_rows.words(kept[j]));

    for width in [1, 2, 4] {
        let (telemetry, _sink) = Telemetry::ring(4);
        let mut rng = StdRng::seed_from_u64(run_seed);
        let choice = maximize_eic(
            &sub,
            &context,
            &objective,
            &regions,
            None,
            Some(&incumbent),
            params,
            &mut rng,
            &Pool::new(width),
            &telemetry,
        );
        let snap = telemetry.snapshot().unwrap();
        prop_assert_eq!(&choice.config, &want_config, "width {}", width);
        prop_assert_eq!(choice.eic.to_bits(), want_eic.to_bits(), "width {}", width);
        prop_assert_eq!(choice.from_safe_region, want_safe, "width {}", width);
        prop_assert_eq!(
            snap.counters
                .get(metric::SAFE_REGION_REJECTIONS)
                .copied()
                .unwrap_or(0),
            want_rejections
        );
        prop_assert_eq!(
            snap.histograms[metric::EIC_EVALS_PER_ITER].sum,
            want_evals as f64
        );
    }
    Ok(kept.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn tiled_pass_matches_the_unpruned_path(
        seed in any::<u64>(),
        n_random in 1usize..300,
        n_local in 0usize..120,
    ) {
        check(seed, CandidateParams { n_random, n_local, local_scale: 0.1 }, false)?;
    }
}

/// Candidate counts at the tile edges: one candidate, fewer than one
/// lane block, and counts that are not a multiple of the lane width or
/// the tile.
#[test]
fn tile_edge_counts_match_the_unpruned_path() {
    for (seed, m) in [(1, 1), (2, 3), (3, 7), (4, 67), (5, 130), (6, 201)] {
        let params = CandidateParams {
            n_random: m,
            n_local: 0,
            local_scale: 0.1,
        };
        assert_eq!(check(seed, params, true).unwrap(), m, "seed {seed}");
    }
}
