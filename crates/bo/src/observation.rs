//! Observed configuration evaluations.

use otune_space::Configuration;
use serde::{Deserialize, Serialize};

/// One evaluated configuration: the unit of runhistory the surrogates are
/// trained on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// The evaluated configuration.
    pub config: Configuration,
    /// Objective value `f(x)` (lower is better).
    pub objective: f64,
    /// Observed runtime `T(x)` in seconds (the safety metric).
    pub runtime: f64,
    /// Analytic resource amount `R(x)`.
    pub resource: f64,
    /// Workload context at evaluation time (data size and/or calendar
    /// features), appended to the encoded configuration for the surrogate.
    pub context: Vec<f64>,
    /// Whether the run behind this observation failed (OOM, `T_max` kill).
    /// Failed runs are recorded *censored*: `runtime` holds the penalty
    /// value, never the (unknowable) true runtime, and the observation is
    /// unconditionally infeasible for the safe region and the incumbent.
    #[serde(default)]
    pub failed: bool,
}

impl Observation {
    /// Whether this observation satisfies `runtime ≤ t_max` and
    /// `resource ≤ r_max` (see [`within_constraints`]). Failed runs are
    /// never feasible, regardless of bounds.
    pub fn is_feasible(&self, t_max: Option<f64>, r_max: Option<f64>) -> bool {
        !self.failed && within_constraints(self.runtime, self.resource, t_max, r_max)
    }
}

/// Whether a run's `(runtime, resource)` satisfies the application
/// requirements of Eq. 1: `runtime ≤ t_max` and `resource ≤ r_max`, with
/// `None` disabling a bound. Every run-level `T_max`/`R_max` decision goes
/// through this function.
pub fn within_constraints(
    runtime: f64,
    resource: f64,
    t_max: Option<f64>,
    r_max: Option<f64>,
) -> bool {
    t_max.is_none_or(|t| runtime <= t) && r_max.is_none_or(|r| resource <= r)
}

/// Whether `value` is a usable measurement of a run: finite and `> 0`,
/// or `>= 0` for a killed run (`failed`), whose partial runtime or
/// resource may be zero. The tuner takes logs of these values, and the
/// job journal and the tuning corpus store them as JSON numbers, which
/// cannot hold `inf` or `NaN`.
pub fn usable_measurement(value: f64, failed: bool) -> bool {
    value.is_finite() && (value > 0.0 || (failed && value == 0.0))
}

/// The best (lowest-objective) feasible observation, falling back to the
/// best overall when nothing is feasible.
pub fn best_observation(
    obs: &[Observation],
    t_max: Option<f64>,
    r_max: Option<f64>,
) -> Option<&Observation> {
    let feasible = obs
        .iter()
        .filter(|o| o.is_feasible(t_max, r_max))
        .min_by(|a, b| {
            a.objective
                .partial_cmp(&b.objective)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    feasible.or_else(|| {
        obs.iter().min_by(|a, b| {
            a.objective
                .partial_cmp(&b.objective)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use otune_space::ParamValue;

    fn obs(objective: f64, runtime: f64, resource: f64) -> Observation {
        Observation {
            failed: false,
            config: Configuration::new(vec![ParamValue::Int(1)]),
            objective,
            runtime,
            resource,
            context: vec![],
        }
    }

    #[test]
    fn feasibility_bounds() {
        let o = obs(1.0, 100.0, 50.0);
        assert!(o.is_feasible(None, None));
        assert!(o.is_feasible(Some(100.0), Some(50.0)));
        assert!(!o.is_feasible(Some(99.0), None));
        assert!(!o.is_feasible(None, Some(49.0)));
    }

    #[test]
    fn failed_runs_are_never_feasible() {
        let mut o = obs(1.0, 10.0, 5.0);
        o.failed = true;
        assert!(!o.is_feasible(None, None), "failed beats missing bounds");
        assert!(!o.is_feasible(Some(100.0), Some(100.0)));
        // A failed incumbent never wins over a feasible one.
        let all = vec![o, obs(9.0, 10.0, 5.0)];
        let best = best_observation(&all, None, None).unwrap();
        assert_eq!(best.objective, 9.0);
    }

    #[test]
    fn failed_flag_defaults_to_false_in_old_json() {
        let o = obs(1.0, 10.0, 5.0);
        let mut json = serde_json::to_string(&o).unwrap();
        assert!(json.contains("\"failed\""));
        // Strip the field to emulate pre-fault-injection history files.
        json = json.replace(",\"failed\":false", "");
        let back: Observation = serde_json::from_str(&json).unwrap();
        assert!(!back.failed);
    }

    #[test]
    fn best_prefers_feasible() {
        let all = vec![
            obs(1.0, 500.0, 10.0),
            obs(5.0, 50.0, 10.0),
            obs(3.0, 60.0, 10.0),
        ];
        let best = best_observation(&all, Some(100.0), None).unwrap();
        assert_eq!(best.objective, 3.0, "lowest objective among feasible");
    }

    #[test]
    fn best_falls_back_when_nothing_feasible() {
        let all = vec![obs(2.0, 500.0, 10.0), obs(4.0, 600.0, 10.0)];
        let best = best_observation(&all, Some(100.0), None).unwrap();
        assert_eq!(best.objective, 2.0);
    }

    #[test]
    fn empty_history() {
        assert!(best_observation(&[], None, None).is_none());
    }
}
