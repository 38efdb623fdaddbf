//! Periodic input-size drift.
//!
//! §3.3 ("Dynamic Workload Support"): the data size of a periodic job
//! changes over runs — often with daily and weekly seasonality — and the
//! surrogate takes it (or the hour-of-day / day-of-week when the size is
//! not observable) as an input. [`DataSizeModel`] produces that drift
//! deterministically per period.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic per-period data-size generator with daily/weekly
/// seasonality and mild noise.
#[derive(Debug, Clone)]
pub struct DataSizeModel {
    /// Mean input size in GB.
    pub base_gb: f64,
    /// Relative amplitude of the daily cycle (0 disables it).
    pub daily_amplitude: f64,
    /// Relative amplitude of the weekly cycle (0 disables it).
    pub weekly_amplitude: f64,
    /// Relative log-normal noise σ per period.
    pub noise: f64,
    /// Periods per day: 24 for hourly jobs, 1 for daily jobs.
    pub periods_per_day: u32,
    /// Seed for the per-period noise.
    pub seed: u64,
}

impl DataSizeModel {
    /// A constant-size model (no drift, no noise).
    pub fn constant(base_gb: f64) -> Self {
        DataSizeModel {
            base_gb,
            daily_amplitude: 0.0,
            weekly_amplitude: 0.0,
            noise: 0.0,
            periods_per_day: 24,
            seed: 0,
        }
    }

    /// An hourly job with typical business seasonality: ±20% daily,
    /// ±10% weekly, 5% noise.
    pub fn hourly(base_gb: f64, seed: u64) -> Self {
        DataSizeModel {
            base_gb,
            daily_amplitude: 0.20,
            weekly_amplitude: 0.10,
            noise: 0.05,
            periods_per_day: 24,
            seed,
        }
    }

    /// A daily job with weekly seasonality.
    pub fn daily(base_gb: f64, seed: u64) -> Self {
        DataSizeModel {
            base_gb,
            daily_amplitude: 0.0,
            weekly_amplitude: 0.15,
            noise: 0.05,
            periods_per_day: 1,
            seed,
        }
    }

    /// Input size for period `t` (0-based run counter).
    pub fn size_at(&self, t: u64) -> f64 {
        let day_pos = (t % self.periods_per_day as u64) as f64 / self.periods_per_day as f64;
        let week_pos =
            (t % (7 * self.periods_per_day as u64)) as f64 / (7 * self.periods_per_day) as f64;
        let daily = 1.0 + self.daily_amplitude * (2.0 * std::f64::consts::PI * day_pos).sin();
        let weekly = 1.0 + self.weekly_amplitude * (2.0 * std::f64::consts::PI * week_pos).sin();
        let noise = if self.noise > 0.0 {
            let mut rng = StdRng::seed_from_u64(self.seed ^ t.wrapping_mul(0x517c_c1b7_2722_0a95));
            let (a, b): (f64, f64) = (rng.gen::<f64>().max(1e-12), rng.gen());
            let z = (-2.0 * a.ln()).sqrt() * (2.0 * std::f64::consts::PI * b).cos();
            (self.noise * z).exp()
        } else {
            1.0
        };
        (self.base_gb * daily * weekly * noise).max(0.01)
    }

    /// Hour of day (0–23) for period `t` — the fallback workload feature
    /// when data sizes are not observable (§3.3).
    pub fn hour_of_day(&self, t: u64) -> u32 {
        if self.periods_per_day >= 24 {
            ((t % self.periods_per_day as u64) * 24 / self.periods_per_day as u64) as u32
        } else {
            0
        }
    }

    /// Day of week (0–6) for period `t`.
    pub fn day_of_week(&self, t: u64) -> u32 {
        ((t / self.periods_per_day as u64) % 7) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_model_is_flat() {
        let m = DataSizeModel::constant(50.0);
        for t in 0..100 {
            assert_eq!(m.size_at(t), 50.0);
        }
    }

    #[test]
    fn hourly_model_oscillates_around_base() {
        let m = DataSizeModel::hourly(100.0, 7);
        let sizes: Vec<f64> = (0..24 * 7).map(|t| m.size_at(t)).collect();
        let mean = sizes.iter().sum::<f64>() / sizes.len() as f64;
        assert!((mean / 100.0 - 1.0).abs() < 0.1, "mean {mean}");
        let min = sizes.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = sizes.iter().cloned().fold(0.0, f64::max);
        assert!(max > min * 1.2, "seasonality visible: {min}..{max}");
    }

    #[test]
    fn deterministic_per_period() {
        let m = DataSizeModel::hourly(100.0, 3);
        assert_eq!(m.size_at(17), m.size_at(17));
        assert_ne!(m.size_at(17), m.size_at(18));
    }

    #[test]
    fn calendar_features() {
        let hourly = DataSizeModel::hourly(1.0, 0);
        assert_eq!(hourly.hour_of_day(0), 0);
        assert_eq!(hourly.hour_of_day(23), 23);
        assert_eq!(hourly.hour_of_day(24), 0);
        assert_eq!(hourly.day_of_week(0), 0);
        assert_eq!(hourly.day_of_week(24), 1);
        assert_eq!(hourly.day_of_week(24 * 7), 0);
        let daily = DataSizeModel::daily(1.0, 0);
        assert_eq!(daily.hour_of_day(5), 0);
        assert_eq!(daily.day_of_week(8), 1);
    }

    #[test]
    fn sizes_stay_positive() {
        let m = DataSizeModel {
            base_gb: 1.0,
            daily_amplitude: 0.9,
            weekly_amplitude: 0.9,
            noise: 0.5,
            periods_per_day: 24,
            seed: 11,
        };
        for t in 0..500 {
            assert!(m.size_at(t) > 0.0);
        }
    }
}
