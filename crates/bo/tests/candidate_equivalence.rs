//! The flat candidate pipeline against its reference implementation.
//!
//! `maximize_eic` samples, deduplicates, filters, screens and scores
//! its candidates as one flat matrix of encoded rows and value words,
//! decoding only the winner. The oracle below is the same pipeline over
//! `Configuration`s: `lift`-based sub-space samples, `neighbor`
//! perturbations that decode twice, `Configuration::dedup_key` strings,
//! and `encode ++ context` rows scored point by point. On arbitrary
//! spaces (int, log-int, float and log-float ranges, categoricals and
//! bools), free sets, bases, incumbents, contexts, seeds and candidate
//! parameters, both must keep the same rows bit for bit, pick the same
//! winner, and leave the RNG at the same position.

use otune_bo::{
    distinct_feasible, fill_candidates, maximize_eic, surrogate_kinds, CandidateParams,
    EicObjective, SafeRegion,
};
use otune_gp::{GaussianProcess, GpConfig};
use otune_pool::Pool;
use otune_space::{
    CandidateRows, ConfigSpace, Configuration, Domain, ParamValue, Parameter, Subspace,
};
use otune_telemetry::Telemetry;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A space of `n` parameters of every kind, with wide, narrow and
/// offset ranges drawn from `rng`.
fn arbitrary_space(rng: &mut StdRng, n: usize) -> ConfigSpace {
    let params = (0..n)
        .map(|i| {
            let name = format!("p{i}");
            let offset = rng.gen_bool(0.5);
            match rng.gen_range(0..6) {
                0 => {
                    let lo = if offset {
                        rng.gen_range(-1000i64..1000)
                    } else {
                        0
                    };
                    let width = [1i64, 2, 7, 100, 100_000][rng.gen_range(0..5)];
                    Parameter::int(&name, lo, lo + width, lo)
                }
                1 => {
                    let lo = if offset { rng.gen_range(2i64..500) } else { 1 };
                    let hi = lo + [1i64, 3, 60, 8000, 1 << 30][rng.gen_range(0..5)];
                    Parameter::log_int(&name, lo, hi, hi)
                }
                2 => {
                    let lo = if offset {
                        rng.gen_range(-500.0..500.0)
                    } else {
                        0.0
                    };
                    let width = 10f64.powf(rng.gen_range(-6.0..6.0));
                    Parameter::float(&name, lo, lo + width, lo)
                }
                3 => {
                    let lo = 10f64.powf(rng.gen_range(-4.0..4.0));
                    let hi = lo * 10f64.powf(rng.gen_range(1e-4..8.0));
                    let domain = Domain::Float { lo, hi, log: true };
                    Parameter::new(&name, domain, ParamValue::Float(lo)).unwrap()
                }
                4 => {
                    let k = rng.gen_range(1..=4);
                    let choices: Vec<String> = (0..k).map(|c| format!("c{c}")).collect();
                    let choices: Vec<&str> = choices.iter().map(String::as_str).collect();
                    Parameter::categorical(&name, &choices, k - 1)
                }
                _ => Parameter::boolean(&name, offset),
            }
        })
        .collect();
    ConfigSpace::new(params)
}

// --- The oracle: the pipeline over `Configuration`s, one decode at a time. ---

fn oracle_lift(
    space: &ConfigSpace,
    free: &[usize],
    base: &Configuration,
    u: &[f64],
) -> Configuration {
    let mut full_u = space.encode(base);
    for (&dim, &coord) in free.iter().zip(u) {
        full_u[dim] = coord;
    }
    space.decode(&full_u)
}

fn oracle_sample(
    space: &ConfigSpace,
    free: &[usize],
    base: &Configuration,
    rng: &mut StdRng,
) -> Configuration {
    let u: Vec<f64> = (0..free.len()).map(|_| rng.gen::<f64>()).collect();
    oracle_lift(space, free, base, &u)
}

fn oracle_space_neighbor(
    space: &ConfigSpace,
    config: &Configuration,
    scale: f64,
    rng: &mut StdRng,
) -> Configuration {
    let mut u = space.encode(config);
    for (i, p) in space.params().iter().enumerate() {
        if p.domain.is_numeric() {
            let (a, b): (f64, f64) = (rng.gen::<f64>().max(1e-12), rng.gen());
            let gauss = (-2.0 * a.ln()).sqrt() * (2.0 * std::f64::consts::PI * b).cos();
            u[i] = (u[i] + gauss * scale).clamp(0.0, 1.0);
        } else if rng.gen::<f64>() < scale {
            u[i] = rng.gen();
        }
    }
    space.decode(&u)
}

fn oracle_neighbor(
    space: &ConfigSpace,
    free: &[usize],
    config: &Configuration,
    scale: f64,
    rng: &mut StdRng,
) -> Configuration {
    let perturbed = oracle_space_neighbor(space, config, scale, rng);
    let mut u = space.encode(config);
    let pu = space.encode(&perturbed);
    for &i in free {
        u[i] = pu[i];
    }
    space.decode(&u)
}

/// The kept candidates and their `encode ++ context` rows.
fn oracle_candidates(
    case: &Case,
    analytic: Option<&dyn Fn(&Configuration) -> bool>,
    rng: &mut StdRng,
) -> (Vec<Configuration>, Vec<Vec<f64>>) {
    let (space, free) = (&case.space, &case.free);
    let mut candidates: Vec<Configuration> = (0..case.params.n_random)
        .map(|_| oracle_sample(space, free, &case.base, rng))
        .collect();
    if let Some(inc) = &case.incumbent {
        for i in 0..case.params.n_local {
            let scale = case.params.local_scale * [1.0, 0.4, 0.15][i % 3];
            candidates.push(oracle_neighbor(space, free, inc, scale, rng));
        }
    }
    let mut seen = std::collections::HashSet::new();
    candidates.retain(|c| seen.insert(c.dedup_key()) && analytic.is_none_or(|f| f(c)));
    let encoded = candidates
        .iter()
        .map(|c| {
            let mut v = space.encode(c);
            v.extend_from_slice(&case.context);
            v
        })
        .collect();
    (candidates, encoded)
}

/// The oracle's choice: point-by-point screening and scoring, first-max
/// EIC among safe candidates, else first-min violation.
fn oracle_choice(
    case: &Case,
    candidates: &[Configuration],
    encoded: &[Vec<f64>],
    objective: &EicObjective<'_>,
    region: &SafeRegion<'_>,
) -> (Configuration, f64, bool) {
    if candidates.is_empty() {
        let fallback = case.incumbent.clone().unwrap_or_else(|| case.base.clone());
        return (fallback, 0.0, false);
    }
    let mut best_safe: Option<(usize, f64)> = None;
    let mut least: Option<(usize, f64)> = None;
    for (i, x) in encoded.iter().enumerate() {
        let violation = region.violation(x);
        if violation <= 0.0 {
            let v = objective.eval(x);
            if best_safe.is_none_or(|(_, b)| v > b) {
                best_safe = Some((i, v));
            }
        } else if least.is_none_or(|(_, b)| violation < b) {
            least = Some((i, violation));
        }
    }
    match best_safe {
        Some((i, v)) => (candidates[i].clone(), v, true),
        None => (candidates[least.unwrap().0].clone(), 0.0, false),
    }
}

// --- Cases ---

#[derive(Debug)]
struct Case {
    space: ConfigSpace,
    free: Vec<usize>,
    base: Configuration,
    incumbent: Option<Configuration>,
    context: Vec<f64>,
    params: CandidateParams,
    filtered: bool,
    seed: u64,
}

fn case(spec_seed: u64, seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(spec_seed);
    let n = rng.gen_range(1..=12);
    let space = arbitrary_space(&mut rng, n);
    // Free sets from empty to full, in an arbitrary (ranking) order.
    let p_free = [0.0, 0.3, 0.7, 1.0][rng.gen_range(0..4)];
    let mut free: Vec<usize> = (0..n).filter(|_| rng.gen_bool(p_free)).collect();
    free.shuffle(&mut rng);
    let base = space.sample(&mut rng);
    let incumbent = rng.gen_bool(0.8).then(|| space.sample(&mut rng));
    let context = (0..rng.gen_range(0..=2)).map(|_| rng.gen()).collect();
    let params = CandidateParams {
        n_random: rng.gen_range(0..250),
        n_local: rng.gen_range(0..120),
        local_scale: 10f64.powf(rng.gen_range(-3.0..0.0)),
    };
    Case {
        space,
        free,
        base,
        incumbent,
        context,
        params,
        filtered: rng.gen_bool(0.5),
        seed,
    }
}

/// A deterministic analytic filter that rejects about a quarter of the
/// configurations, keyed on their exact values.
fn quarter_filter(c: &Configuration) -> bool {
    let h = c
        .dedup_key()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
    h % 4 != 0
}

/// Objective and runtime GPs over a few random points of the space.
fn surrogates(case: &Case) -> (GaussianProcess, GaussianProcess) {
    let mut rng = StdRng::seed_from_u64(case.seed ^ 0x5eed);
    let xs: Vec<Vec<f64>> = (0..10)
        .map(|_| {
            let mut x = case.space.encode(&case.space.sample(&mut rng));
            x.extend_from_slice(&case.context);
            x
        })
        .collect();
    let objective: Vec<f64> = xs
        .iter()
        .map(|x| x.iter().map(|v| (3.0 * v).sin()).sum())
        .collect();
    let runtime: Vec<f64> = xs.iter().map(|x| 10.0 + x.iter().sum::<f64>()).collect();
    let kinds = surrogate_kinds(&case.space, case.context.len());
    let config = GpConfig {
        optimize_hypers: false,
        ..GpConfig::default()
    };
    (
        GaussianProcess::fit(
            kinds.clone(),
            xs.clone(),
            &objective,
            config,
            &Pool::from_env(),
            &Telemetry::disabled(),
        )
        .unwrap(),
        GaussianProcess::fit(
            kinds,
            xs,
            &runtime,
            config,
            &Pool::from_env(),
            &Telemetry::disabled(),
        )
        .unwrap(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Generation, deduplication and the analytic filter keep the oracle's
    /// rows bit for bit, in count and in order; the winner and the RNG
    /// position match; and the thin `Subspace` decoders match the
    /// `lift`-based sampler and neighbour.
    #[test]
    fn flat_pipeline_matches_oracle(spec_seed in any::<u64>(), seed in any::<u64>()) {
        let c = case(spec_seed, seed);
        let filter: Option<&dyn Fn(&Configuration) -> bool> =
            if c.filtered { Some(&quarter_filter) } else { None };
        let sub = Subspace::new(&c.space, c.free.clone(), c.base.clone()).unwrap();

        let mut oracle_rng = StdRng::seed_from_u64(c.seed);
        let (configs, encoded) = oracle_candidates(&c, filter, &mut oracle_rng);
        let mut rng = StdRng::seed_from_u64(c.seed);
        let mut rows = CandidateRows::default();
        fill_candidates(&sub, &c.context, c.incumbent.as_ref(), c.params, &mut rng, &mut rows);
        let kept = distinct_feasible(&sub, &rows, filter);
        prop_assert_eq!(kept.len(), configs.len());
        let width = rows.width();
        for (k, &row) in kept.iter().enumerate() {
            let flat = &rows.encoded()[row * width..(row + 1) * width];
            let bits: Vec<u64> = flat.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = encoded[k].iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(bits, want, "row {} of {:?}", k, c);
            prop_assert_eq!(&c.space.decode_words(rows.words(row)), &configs[k]);
        }
        prop_assert_eq!(rng.gen::<u64>(), oracle_rng.gen::<u64>());

        // The winner, through the pooled batched screen and score.
        let (ogp, rgp) = surrogates(&c);
        let threshold = rgp.predict_mean(&encoded.first().cloned().unwrap_or_else(|| {
            let mut x = c.space.encode(&c.base);
            x.extend_from_slice(&c.context);
            x
        }));
        let region = SafeRegion::new(&rgp, threshold, 0.5);
        let objective = EicObjective {
            objective_gp: &ogp,
            y_best: 0.0,
            constraints: vec![(&rgp, threshold + 0.5)],
        };
        let (want_config, want_eic, want_safe) =
            oracle_choice(&c, &configs, &encoded, &objective, &region);
        let mut rng = StdRng::seed_from_u64(c.seed);
        let choice = maximize_eic(
            &sub,
            &c.context,
            &objective,
            std::slice::from_ref(&region),
            filter,
            c.incumbent.as_ref(),
            c.params,
            &mut rng,
            &Pool::new(2),
            &Telemetry::disabled(),
        );
        prop_assert_eq!(&choice.config, &want_config);
        prop_assert_eq!(choice.eic.to_bits(), want_eic.to_bits());
        prop_assert_eq!(choice.from_safe_region, want_safe);
        let mut oracle_rng = StdRng::seed_from_u64(c.seed);
        oracle_candidates(&c, filter, &mut oracle_rng);
        prop_assert_eq!(rng.gen::<u64>(), oracle_rng.gen::<u64>());

        // The public samplers are decodes of the same fill.
        let mut rng = StdRng::seed_from_u64(c.seed);
        let mut oracle_rng = StdRng::seed_from_u64(c.seed);
        let samples = sub.sample_n(c.params.n_random.min(40), &mut rng);
        for s in &samples {
            prop_assert_eq!(s, &oracle_sample(&c.space, &c.free, &c.base, &mut oracle_rng));
        }
        let center = c.incumbent.clone().unwrap_or_else(|| c.base.clone());
        let scale = c.params.local_scale;
        let moved = sub.neighbor(&center, scale, &mut rng);
        prop_assert_eq!(moved, oracle_neighbor(&c.space, &c.free, &center, scale, &mut oracle_rng));
        prop_assert_eq!(rng.gen::<u64>(), oracle_rng.gen::<u64>());
    }
}
