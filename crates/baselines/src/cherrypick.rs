//! CherryPick (Alipourfard et al., NSDI'17): Bayesian optimization with
//! Expected Improvement and a runtime constraint, searching the full
//! configuration space — no dimensionality reduction, which is why it
//! struggles on the 30-parameter Spark space (§6.3 observation 2).

use crate::Tuner;
use otune_bo::{
    best_observation, expected_improvement, fit_surrogate, prob_below, Observation, SurrogateInput,
};
use otune_gp::GpConfig;
use otune_pool::Pool;
use otune_space::{ConfigSpace, Configuration};
use otune_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The CherryPick strategy.
pub struct CherryPick {
    space: ConfigSpace,
    rng: StdRng,
    /// Runtime constraint `T_max` (EIC-style probability factor).
    t_max: Option<f64>,
    n_init: usize,
    n_candidates: usize,
    seed: u64,
    /// Worker pool for its model fits, sized from the environment.
    pool: Pool,
}

impl CherryPick {
    /// Create a CherryPick tuner with an optional runtime threshold.
    pub fn new(space: ConfigSpace, t_max: Option<f64>, seed: u64) -> Self {
        CherryPick {
            space,
            rng: StdRng::seed_from_u64(seed ^ 0xC4E6),
            t_max,
            n_init: 3,
            n_candidates: 400,
            seed,
            pool: Pool::from_env(),
        }
    }
}

impl Tuner for CherryPick {
    fn suggest(&mut self, history: &[Observation], context: &[f64]) -> Configuration {
        if history.len() < self.n_init {
            let probes = self
                .space
                .low_discrepancy(history.len() + 1, self.seed ^ 0xCAFE);
            return probes[history.len()].clone();
        }
        // Surrogates are fitted on log metrics — the same warping `otune`
        // uses — so the comparison isolates the *strategies*.
        let strip = |o: &Observation| Observation {
            context: vec![],
            objective: o.objective.max(1e-9).ln(),
            runtime: o.runtime.max(1e-9).ln(),
            ..o.clone()
        };
        let stripped: Vec<Observation> = history.iter().map(strip).collect();
        let _ = context;
        let cfg = GpConfig {
            seed: self.seed,
            ..GpConfig::default()
        };
        let fit = |input| {
            let tm = Telemetry::disabled();
            fit_surrogate(&self.space, &stripped, input, cfg, &self.pool, &tm)
        };
        let (Ok(obj_gp), Ok(rt_gp)) =
            (fit(SurrogateInput::Objective), fit(SurrogateInput::Runtime))
        else {
            return self.space.sample(&mut self.rng);
        };
        let incumbent = best_observation(history, self.t_max, None)
            .expect("history non-empty")
            .objective
            .max(1e-9)
            .ln();
        let mut best: Option<(Configuration, f64)> = None;
        for cand in self.space.sample_n(self.n_candidates, &mut self.rng) {
            let x = self.space.encode(&cand);
            let (m, v) = obj_gp.predict(&x);
            let mut acq = expected_improvement(m, v, incumbent);
            if let Some(t_max) = self.t_max {
                let (tm, tv) = rt_gp.predict(&x);
                acq *= prob_below(tm, tv, t_max.max(1e-9).ln());
            }
            if best.as_ref().is_none_or(|(_, b)| acq > *b) {
                best = Some((cand, acq));
            }
        }
        best.map(|(c, _)| c)
            .unwrap_or_else(|| self.space.sample(&mut self.rng))
    }

    fn name(&self) -> &'static str {
        "CherryPick"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otune_space::Parameter;

    fn space() -> ConfigSpace {
        ConfigSpace::new(vec![
            Parameter::float("a", 0.0, 1.0, 0.5),
            Parameter::float("b", 0.0, 1.0, 0.5),
        ])
    }

    fn eval(c: &Configuration) -> Observation {
        let a = c[0].as_float().unwrap();
        let obj = (a - 0.3) * (a - 0.3) * 100.0;
        Observation {
            failed: false,
            config: c.clone(),
            objective: obj,
            runtime: obj + 10.0,
            resource: 1.0,
            context: vec![],
        }
    }

    #[test]
    fn improves_over_initial_probes() {
        let s = space();
        let mut t = CherryPick::new(s.clone(), None, 1);
        let mut history = Vec::new();
        for _ in 0..15 {
            let c = t.suggest(&history, &[]);
            s.validate(&c).unwrap();
            history.push(eval(&c));
        }
        let best_init = history[..3]
            .iter()
            .map(|o| o.objective)
            .fold(f64::INFINITY, f64::min);
        let best_all = history
            .iter()
            .map(|o| o.objective)
            .fold(f64::INFINITY, f64::min);
        assert!(best_all <= best_init);
        assert!(best_all < 5.0, "found the basin: {best_all}");
        assert_eq!(t.name(), "CherryPick");
    }

    #[test]
    fn runtime_constraint_shapes_choices() {
        let s = space();
        // Runtime is high for small a: with T_max, avoid small a.
        let eval_rt = |c: &Configuration| {
            let a = c[0].as_float().unwrap();
            Observation {
                failed: false,
                config: c.clone(),
                objective: a * 100.0, // optimum at a = 0 — but unsafe there
                runtime: 500.0 - 400.0 * a,
                resource: 1.0,
                context: vec![],
            }
        };
        let mut t = CherryPick::new(s.clone(), Some(300.0), 2);
        let mut history = Vec::new();
        for _ in 0..12 {
            let c = t.suggest(&history, &[]);
            history.push(eval_rt(&c));
        }
        // Later suggestions should hover near the constraint boundary
        // (a ≈ 0.5) rather than the unconstrained optimum a = 0.
        let late_mean: f64 = history[6..]
            .iter()
            .map(|o| o.config[0].as_float().unwrap())
            .sum::<f64>()
            / 6.0;
        assert!(
            late_mean > 0.2,
            "constraint pushes away from a = 0: {late_mean}"
        );
    }
}
