//! Property-based tests for Gaussian-process regression.

use otune_gp::{
    CandidateTile, DistanceTile, FeatureKind, GaussianProcess, GpConfig, KernelHyper, KernelTile,
    MixedKernel, PackedSet, Rows,
};
use otune_pool::Pool;
use otune_telemetry::Telemetry;
use proptest::prelude::*;

/// [`GaussianProcess::fit`] on the environment's pool, untraced.
fn fit(
    kinds: Vec<FeatureKind>,
    x: Vec<Vec<f64>>,
    y: &[f64],
    cfg: GpConfig,
) -> Result<GaussianProcess, otune_gp::GpError> {
    GaussianProcess::fit(kinds, x, y, cfg, &Pool::from_env(), &Telemetry::disabled())
}

fn kind() -> impl Strategy<Value = FeatureKind> {
    (0u8..3).prop_map(|t| match t {
        0 => FeatureKind::Numeric,
        1 => FeatureKind::Categorical,
        _ => FeatureKind::DataSize,
    })
}

fn rows(n: usize, d: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, d), n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Posterior variance is non-negative and predictions are finite for
    /// arbitrary (deduplicated-by-jitter) training sets.
    #[test]
    fn posterior_is_finite_and_nonneg(
        x in rows(8, 3),
        y in proptest::collection::vec(-100.0f64..100.0, 8),
        probe in proptest::collection::vec(0.0f64..1.0, 3),
    ) {
        let kinds = vec![FeatureKind::Numeric, FeatureKind::Numeric, FeatureKind::Categorical];
        let gp = fit(kinds, x, &y, GpConfig::default()).unwrap();
        let (m, v) = gp.predict(&probe);
        prop_assert!(m.is_finite());
        prop_assert!(v.is_finite() && v >= 0.0);
    }

    /// The kernel is symmetric and bounded by the prior variance.
    #[test]
    fn kernel_symmetric_and_bounded(
        a in proptest::collection::vec(0.0f64..1.0, 4),
        b in proptest::collection::vec(0.0f64..1.0, 4),
        log_len in -2.0f64..1.0,
    ) {
        let hyper = KernelHyper {
            len_numeric: log_len.exp(),
            ..KernelHyper::default()
        };
        let k = MixedKernel::new(
            vec![
                FeatureKind::Numeric,
                FeatureKind::Numeric,
                FeatureKind::Categorical,
                FeatureKind::DataSize,
            ],
            hyper,
        );
        let kab = k.eval(&a, &b);
        let kba = k.eval(&b, &a);
        prop_assert!((kab - kba).abs() < 1e-12);
        prop_assert!(kab <= k.diag() + 1e-12);
        prop_assert!(kab >= 0.0);
    }

    /// With negligible noise and hyper-optimization off, the GP
    /// interpolates distinct training points closely.
    #[test]
    fn interpolates_training_points(seed in 0u64..500) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<Vec<f64>> = (0..6)
            .map(|i| vec![i as f64 / 5.0 + rng.gen::<f64>() * 0.01])
            .collect();
        let y: Vec<f64> = x.iter().map(|v| (v[0] * 3.0).sin() * 5.0).collect();
        let gp = fit(
            vec![FeatureKind::Numeric],
            x.clone(),
            &y,
            GpConfig::default(),
        )
        .unwrap();
        for (xi, yi) in x.iter().zip(&y) {
            let m = gp.predict_mean(xi);
            prop_assert!((m - yi).abs() < 1.5, "pred {m} vs target {yi}");
        }
    }

    /// Standardization makes predictions invariant (up to scale) under
    /// affine transformations of the targets.
    #[test]
    fn affine_equivariance(
        scale in 0.5f64..20.0,
        shift in -50.0f64..50.0,
    ) {
        let x: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 7.0]).collect();
        let y: Vec<f64> = x.iter().map(|v| (v[0] * 4.0).cos()).collect();
        let y2: Vec<f64> = y.iter().map(|v| v * scale + shift).collect();
        let cfg = GpConfig { optimize_hypers: false, ..GpConfig::default() };
        let g1 = fit(vec![FeatureKind::Numeric], x.clone(), &y, cfg).unwrap();
        let g2 = fit(vec![FeatureKind::Numeric], x, &y2, cfg).unwrap();
        let p1 = g1.predict_mean(&[0.33]);
        let p2 = g2.predict_mean(&[0.33]);
        prop_assert!((p2 - (p1 * scale + shift)).abs() < 1e-6 * (1.0 + scale + shift.abs()));
    }

    /// The mean-only path is the mean of the full prediction, bit for
    /// bit, across random kind mixes, history sizes, targets and probes.
    #[test]
    fn predict_mean_is_predict_mean_bitwise(
        kinds in proptest::collection::vec(kind(), 1..6),
        n in 1usize..24,
        seed in 0u64..10_000,
        optimize in any::<bool>(),
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let d = kinds.len();
        let x: Vec<Vec<f64>> = (0..n).map(|_| (0..d).map(|_| rng.gen()).collect()).collect();
        let y: Vec<f64> = (0..n).map(|_| rng.gen_range(-50.0..50.0)).collect();
        let cfg = GpConfig { optimize_hypers: optimize, n_candidates: 6, seed, ..GpConfig::default() };
        let gp = fit(kinds, x.clone(), &y, cfg).unwrap();
        let probes = x.into_iter().chain((0..8).map(|_| (0..d).map(|_| rng.gen()).collect()));
        for p in probes {
            prop_assert_eq!(gp.predict_mean(&p).to_bits(), gp.predict(&p).0.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The blocked packed-row kernel evaluator is bitwise-identical to the
    /// scalar `eval` loop, across random kind interleavings, hyper draws,
    /// and candidate counts covering lane tails (including counts < 4).
    #[test]
    fn packed_row_eval_matches_plain_bitwise(
        kinds in proptest::collection::vec(kind(), 1..9),
        count in 1usize..14,
        seed in 0u64..10_000,
        logs in proptest::collection::vec(-1.5f64..1.5, 5),
        snap_cats in any::<bool>(),
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let d = kinds.len();
        let hyper = KernelHyper::from_log([logs[0], logs[1], logs[2], logs[3], logs[4]]);
        let kernel = MixedKernel::new(kinds.clone(), hyper);
        let mut rng = StdRng::seed_from_u64(seed);
        let draw_row = |rng: &mut StdRng| -> Vec<f64> {
            kinds.iter().map(|k| {
                let v: f64 = rng.gen();
                // Snapping categoricals to {0, 1} exercises the exact-match
                // (zero-mismatch) branch; unsnapped values exercise the
                // 1e-9 tolerance comparison.
                if snap_cats && matches!(k, FeatureKind::Categorical) {
                    v.round()
                } else {
                    v
                }
            }).collect()
        };
        let a: Vec<f64> = draw_row(&mut rng);
        let bs: Vec<Vec<f64>> = (0..count).map(|_| draw_row(&mut rng)).collect();

        let mut set = PackedSet::default();
        kernel.pack_rows(bs.iter().map(Vec::as_slice), &mut set);
        let mut a_set = PackedSet::default();
        kernel.pack_rows(std::iter::once(a.as_slice()), &mut a_set);
        let mut hamming = Vec::new();
        kernel.hamming_table_into(set.n_cat(), &mut hamming);
        let mut out = vec![0.0; count];
        kernel.eval_rows_packed(a_set.row(0), &set, count, &hamming, &mut out);

        for (j, b) in bs.iter().enumerate() {
            let want = kernel.eval(&a, b);
            prop_assert_eq!(
                out[j].to_bits(), want.to_bits(),
                "candidate {} of {} (d={})", j, count, d
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An incremental `update` produces the same posterior as a full refit
    /// at the same hyperparameters — bitwise, because the rank-one factor
    /// extension replays the exact op sequence of the from-scratch
    /// factorization on the append-only path.
    #[test]
    fn incremental_update_matches_same_hyper_full_refit(seed in 0u64..200) {
        use otune_gp::IncrementalPolicy;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 9;
        let x: Vec<Vec<f64>> = (0..n).map(|_| vec![rng.gen(), rng.gen()]).collect();
        let y: Vec<f64> = x.iter().map(|v| (v[0] * 4.0).sin() + v[1] * v[1]).collect();
        let kinds = vec![FeatureKind::Numeric, FeatureKind::Numeric];
        let cfg = GpConfig { optimize_hypers: false, ..GpConfig::default() };

        let mut inc = fit(kinds.clone(), x[..n - 1].to_vec(), &y[..n - 1], cfg)
            .unwrap();
        let policy = IncrementalPolicy::never_research();
        inc.update(
            x[n - 1].clone(),
            y[n - 1],
            &policy,
            cfg,
            &Pool::from_env(),
            &Telemetry::disabled(),
        )
        .unwrap();

        let full = fit(
            kinds,
            x.clone(),
            &y,
            GpConfig { warm_hyper: Some(inc.kernel().hyper), ..cfg },
        )
        .unwrap();
        let probe = vec![rng.gen::<f64>(), rng.gen::<f64>()];
        let (mi, vi) = inc.predict(&probe);
        let (mf, vf) = full.predict(&probe);
        prop_assert_eq!(mi.to_bits(), mf.to_bits());
        prop_assert_eq!(vi.to_bits(), vf.to_bits());
        prop_assert_eq!(
            inc.log_marginal_likelihood().to_bits(),
            full.log_marginal_likelihood().to_bits()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The tiled path against the row-major oracle, on random GPs: kernel
    /// rows and means read off a distance tile are `eval_rows_packed`'s
    /// and `predict`'s bit for bit, exact tile variances are `predict`'s,
    /// and the variance bounds bracket every computed variance. Noise
    /// down to e^-30 over duplicated rows makes the jitter ladder fire;
    /// candidates include training rows, where the upper bound is
    /// tightest; context columns are shared by every candidate or not.
    #[test]
    fn tile_rows_and_variance_bounds_match_the_oracle(
        n in 1usize..150,
        m in 1usize..70,
        n_ctx in 0usize..3,
        seed in 0u64..100_000,
        tiny_noise in any::<bool>(),
        shared_ctx in any::<bool>(),
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut kinds: Vec<FeatureKind> = (0..rng.gen_range(1..8))
            .map(|_| if rng.gen_bool(0.7) { FeatureKind::Numeric } else { FeatureKind::Categorical })
            .collect();
        kinds.extend(std::iter::repeat_n(FeatureKind::DataSize, n_ctx));
        let ctx: Vec<f64> = (0..n_ctx).map(|_| rng.gen()).collect();
        let draw = |rng: &mut StdRng, shared: bool| -> Vec<f64> {
            let mut row: Vec<f64> = kinds[..kinds.len() - n_ctx]
                .iter()
                .map(|k| match k {
                    FeatureKind::Categorical => f64::from(rng.gen_range(0u8..3)),
                    _ => rng.gen(),
                })
                .collect();
            row.extend((0..n_ctx).map(|c| if shared { ctx[c] } else { rng.gen() }));
            row
        };
        let mut x: Vec<Vec<f64>> = Vec::with_capacity(n);
        for i in 0..n {
            // Every fourth row repeats an earlier one.
            let row = if i > 0 && i % 4 == 0 { x[rng.gen_range(0..i)].clone() } else { draw(&mut rng, shared_ctx) };
            x.push(row);
        }
        let y: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let hyper = KernelHyper::from_log([
            rng.gen_range(-2.5..1.5),
            rng.gen_range(-1.5..2.0),
            rng.gen_range(-2.5..1.5),
            rng.gen_range(-1.0..1.5),
            if tiny_noise { -30.0 } else { rng.gen_range(-9.0..-1.0) },
        ]);
        let cfg = GpConfig { optimize_hypers: false, warm_hyper: Some(hyper), ..GpConfig::default() };
        let gp = fit(kinds.clone(), x.clone(), &y, cfg).unwrap();

        let cands: Vec<f64> = (0..m)
            .flat_map(|j| if j % 3 == 0 { x[j % n].clone() } else { draw(&mut rng, shared_ctx) })
            .collect();
        let rows = Rows::new(&cands, kinds.len());
        let mut train = PackedSet::default();
        gp.kernel().pack_rows(x.iter().map(Vec::as_slice), &mut train);
        let mut tile = CandidateTile::default();
        tile.pack(&kinds, rows.iter());
        let mut dist = DistanceTile::default();
        dist.compute(&train, &tile);
        let mut kt = KernelTile::default();
        gp.kernel_tile(&dist, &mut kt);

        let mut cand_set = PackedSet::default();
        gp.kernel().pack_rows(rows.iter(), &mut cand_set);
        let mut hamming = Vec::new();
        gp.kernel().hamming_table_into(cand_set.n_cat(), &mut hamming);
        let mut want = vec![0.0; m];
        for i in 0..n {
            gp.kernel().eval_rows_packed(train.row(i), &cand_set, m, &hamming, &mut want);
            for (j, (got, want)) in kt.row(i).iter().zip(&want).enumerate() {
                prop_assert_eq!(got.to_bits(), want.to_bits(), "k[{}][{}]", i, j);
            }
        }
        let oracle = gp.predict_batch(rows);
        let all: Vec<usize> = (0..m).collect();
        let mut vars = Vec::new();
        gp.tile_vars(&kt, &all, &mut vars);
        for (j, &(mean, var)) in oracle.iter().enumerate() {
            prop_assert_eq!(gp.tile_mean(&kt, j).to_bits(), mean.to_bits(), "mean {}", j);
            prop_assert_eq!(vars[j].to_bits(), var.to_bits(), "var {}", j);
            let (lb, ub) = gp.tile_var_bounds(&kt, j);
            prop_assert!(lb <= var && var <= ub, "{} ≤ {} ≤ {} at {} (jitter {})", lb, var, ub, j, gp.jitter());
        }
    }
}
