//! LOCAT (Xin et al., SIGMOD'22): low-overhead online BO auto-tuning for
//! Spark SQL. Two signature pieces at reduced scale: IICP — important
//! configuration selection by Spearman correlation against the objective —
//! and a datasize-aware GP (the data size joins the GP input).

use crate::{spearman, Tuner};
use otune_bo::{
    best_observation, expected_improvement, fit_surrogate, Observation, SurrogateInput,
};
use otune_gp::GpConfig;
use otune_pool::Pool;
use otune_space::{ConfigSpace, Configuration, Subspace};
use otune_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The LOCAT strategy.
pub struct Locat {
    space: ConfigSpace,
    rng: StdRng,
    /// Executions before IICP runs.
    exploration: usize,
    /// Parameters kept by IICP.
    k: usize,
    important: Option<Vec<usize>>,
    n_candidates: usize,
    seed: u64,
    /// Worker pool for its model fits, sized from the environment.
    pool: Pool,
}

impl Locat {
    /// Create a LOCAT tuner.
    pub fn new(space: ConfigSpace, seed: u64) -> Self {
        Locat {
            space,
            rng: StdRng::seed_from_u64(seed ^ 0x10CA7),
            exploration: 12,
            k: 8,
            important: None,
            n_candidates: 400,
            seed,
            pool: Pool::from_env(),
        }
    }

    /// IICP: rank parameters by |Spearman correlation| between each
    /// encoded coordinate and the objective.
    fn iicp(&self, history: &[Observation]) -> Vec<usize> {
        let encoded: Vec<Vec<f64>> = history
            .iter()
            .map(|o| self.space.encode(&o.config))
            .collect();
        let y: Vec<f64> = history.iter().map(|o| o.objective).collect();
        let mut scored: Vec<(usize, f64)> = (0..self.space.len())
            .map(|d| {
                let col: Vec<f64> = encoded.iter().map(|r| r[d]).collect();
                (d, spearman(&col, &y).abs())
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored
            .into_iter()
            .take(self.k.min(self.space.len()))
            .map(|(d, _)| d)
            .collect()
    }
}

impl Tuner for Locat {
    fn suggest(&mut self, history: &[Observation], context: &[f64]) -> Configuration {
        if history.len() < self.exploration {
            let probes = self
                .space
                .low_discrepancy(history.len() + 1, self.seed ^ 0xA7);
            return probes[history.len()].clone();
        }
        if self.important.is_none() {
            self.important = Some(self.iicp(history));
        }
        let incumbent = best_observation(history, None, None).expect("history non-empty");
        let sub = Subspace::new(
            &self.space,
            self.important.clone().expect("set above"),
            incumbent.config.clone(),
        )
        .expect("IICP indices are valid");

        // Datasize-aware GP on the log objective: keep the context
        // features in the surrogate.
        let logged: Vec<Observation> = history
            .iter()
            .map(|o| Observation {
                objective: o.objective.max(1e-9).ln(),
                ..o.clone()
            })
            .collect();
        let cfg = GpConfig {
            seed: self.seed,
            ..GpConfig::default()
        };
        let tm = Telemetry::disabled();
        let Ok(gp) = fit_surrogate(
            &self.space,
            &logged,
            SurrogateInput::Objective,
            cfg,
            &self.pool,
            &tm,
        ) else {
            return sub.sample(&mut self.rng);
        };
        let ctx_width = history[0].context.len();
        let mut ctx = context.to_vec();
        ctx.resize(ctx_width, 0.0);
        let mut best: Option<(Configuration, f64)> = None;
        for cand in sub.sample_n(self.n_candidates, &mut self.rng) {
            let mut x = self.space.encode(&cand);
            x.extend_from_slice(&ctx);
            let (m, v) = gp.predict(&x);
            let acq = expected_improvement(m, v, incumbent.objective.max(1e-9).ln());
            if best.as_ref().is_none_or(|(_, b)| acq > *b) {
                best = Some((cand, acq));
            }
        }
        best.map(|(c, _)| c)
            .unwrap_or_else(|| sub.sample(&mut self.rng))
    }

    fn name(&self) -> &'static str {
        "LOCAT"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otune_space::Parameter;

    fn space() -> ConfigSpace {
        ConfigSpace::new(vec![
            Parameter::float("important", 0.0, 1.0, 0.5),
            Parameter::float("noise1", 0.0, 1.0, 0.5),
            Parameter::float("noise2", 0.0, 1.0, 0.5),
        ])
    }

    fn eval(c: &Configuration, ds: f64) -> Observation {
        let a = c[0].as_float().unwrap();
        let obj = (a - 0.4) * (a - 0.4) * 80.0 * ds;
        Observation {
            failed: false,
            config: c.clone(),
            objective: obj,
            runtime: obj,
            resource: 1.0,
            context: vec![ds],
        }
    }

    #[test]
    fn iicp_finds_the_influential_parameter() {
        let s = space();
        let mut t = Locat::new(s.clone(), 1);
        t.k = 1;
        let mut history = Vec::new();
        for _ in 0..20 {
            let c = t.suggest(&history, &[0.5]);
            s.validate(&c).unwrap();
            history.push(eval(&c, 0.5));
        }
        assert_eq!(t.important.as_ref().unwrap(), &vec![0]);
        assert_eq!(t.name(), "LOCAT");
    }

    #[test]
    fn converges_with_datasize_context() {
        let s = space();
        let mut t = Locat::new(s.clone(), 4);
        t.k = 2;
        let mut history = Vec::new();
        for i in 0..25 {
            let ds = 0.4 + 0.2 * ((i % 3) as f64 / 2.0);
            let c = t.suggest(&history, &[ds]);
            history.push(eval(&c, ds));
        }
        let best = history
            .iter()
            .map(|o| o.objective)
            .fold(f64::INFINITY, f64::min);
        assert!(best < 3.0, "converged: {best}");
    }
}
