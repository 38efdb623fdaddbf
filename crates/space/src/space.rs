//! The configuration space `Λ_cs` and its unit-cube encoding.

use crate::{Configuration, HaltonSequence, ParamValue, Parameter, Result, SpaceError};
use rand::Rng;
use std::collections::HashMap;

/// The kind of a dimension in the encoded representation — decides which
/// kernel component handles it and whether AGD may move it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DimKind {
    /// Int/float dimensions: Matérn kernel, AGD-movable.
    Numeric,
    /// Categorical/boolean dimensions: Hamming kernel, equality-only.
    Categorical,
}

/// A product space of typed parameters (`Λ_cs = Λ¹ × … × Λᴺ`).
#[derive(Debug, Clone)]
pub struct ConfigSpace {
    params: Vec<Parameter>,
    by_name: HashMap<String, usize>,
}

impl ConfigSpace {
    /// Build a space from an ordered list of parameters.
    pub fn new(params: Vec<Parameter>) -> Self {
        let by_name = params
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name.clone(), i))
            .collect();
        ConfigSpace { params, by_name }
    }

    /// Number of parameters `N`.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the space has no parameters.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// The parameters in order.
    pub fn params(&self) -> &[Parameter] {
        &self.params
    }

    /// Parameter at index `i`.
    pub fn param(&self, i: usize) -> &Parameter {
        &self.params[i]
    }

    /// Index of a parameter by Spark property name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| SpaceError::UnknownParameter(name.to_string()))
    }

    /// Kind of each encoded dimension.
    pub fn dim_kinds(&self) -> Vec<DimKind> {
        self.params
            .iter()
            .map(|p| {
                if p.domain.is_numeric() {
                    DimKind::Numeric
                } else {
                    DimKind::Categorical
                }
            })
            .collect()
    }

    /// The default configuration (every parameter at its default).
    pub fn default_configuration(&self) -> Configuration {
        Configuration::new(self.params.iter().map(|p| p.default.clone()).collect())
    }

    /// Validate and wrap raw values as a configuration of this space.
    pub fn configuration(&self, values: Vec<ParamValue>) -> Result<Configuration> {
        if values.len() != self.params.len() {
            return Err(SpaceError::ArityMismatch {
                expected: self.params.len(),
                actual: values.len(),
            });
        }
        for (p, v) in self.params.iter().zip(&values) {
            p.domain.validate(v, &p.name)?;
        }
        Ok(Configuration::new(values))
    }

    /// Validate an existing configuration against this space.
    pub fn validate(&self, config: &Configuration) -> Result<()> {
        if config.len() != self.params.len() {
            return Err(SpaceError::ArityMismatch {
                expected: self.params.len(),
                actual: config.len(),
            });
        }
        for (p, v) in self.params.iter().zip(config.values()) {
            p.domain.validate(v, &p.name)?;
        }
        Ok(())
    }

    /// Encode a configuration into the unit cube `[0, 1]^N`.
    pub fn encode(&self, config: &Configuration) -> Vec<f64> {
        debug_assert_eq!(config.len(), self.params.len());
        self.params
            .iter()
            .zip(config.values())
            .map(|(p, v)| p.domain.encode(v))
            .collect()
    }

    /// Decode a unit-cube point into a configuration (rounding discrete dims).
    pub fn decode(&self, u: &[f64]) -> Configuration {
        debug_assert_eq!(u.len(), self.params.len());
        Configuration::new(
            self.params
                .iter()
                .zip(u)
                .map(|(p, &x)| p.domain.decode(x))
                .collect(),
        )
    }

    /// Uniform random configuration.
    pub fn sample(&self, rng: &mut impl Rng) -> Configuration {
        let u: Vec<f64> = (0..self.params.len()).map(|_| rng.gen::<f64>()).collect();
        self.decode(&u)
    }

    /// `n` uniform random configurations.
    pub fn sample_n(&self, n: usize, rng: &mut impl Rng) -> Vec<Configuration> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// `n` low-discrepancy configurations (§3.3 initial design).
    pub fn low_discrepancy(&self, n: usize, seed: u64) -> Vec<Configuration> {
        let mut h = HaltonSequence::new(self.params.len(), seed);
        h.take_points(n).iter().map(|u| self.decode(u)).collect()
    }

    /// The `idx`-th configuration of the low-discrepancy design — the
    /// point `low_discrepancy(idx + 1, seed)` would return last, computed
    /// in O(1) by skipping the prefix instead of generating it.
    pub fn low_discrepancy_nth(&self, idx: usize, seed: u64) -> Configuration {
        let mut h = HaltonSequence::new(self.params.len(), seed);
        h.skip(idx as u64);
        self.decode(&h.next_point())
    }

    /// Rebuild a configuration from its value words, one
    /// [`ParamValue::to_word`] per parameter.
    pub fn decode_words(&self, words: &[u64]) -> Configuration {
        debug_assert_eq!(words.len(), self.params.len());
        Configuration::new(
            self.params
                .iter()
                .zip(words)
                .map(|(p, &w)| p.domain.from_word(w))
                .collect(),
        )
    }

    /// [`ConfigSpace::decode_words`] into an existing configuration of
    /// this space, reusing its storage.
    pub fn decode_words_into(&self, words: &[u64], config: &mut Configuration) {
        debug_assert_eq!(words.len(), self.params.len());
        debug_assert_eq!(config.len(), self.params.len());
        for (i, (p, &w)) in self.params.iter().zip(words).enumerate() {
            config.set(i, p.domain.from_word(w));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_space() -> ConfigSpace {
        ConfigSpace::new(vec![
            Parameter::int("instances", 1, 16, 4),
            Parameter::float("fraction", 0.1, 0.9, 0.6),
            Parameter::categorical("codec", &["lz4", "snappy", "zstd"], 0),
            Parameter::boolean("compress", true),
        ])
    }

    #[test]
    fn default_configuration_is_valid() {
        let s = toy_space();
        let d = s.default_configuration();
        assert!(s.validate(&d).is_ok());
        assert_eq!(d[0], ParamValue::Int(4));
        assert_eq!(d[3], ParamValue::Bool(true));
    }

    #[test]
    fn index_of_finds_params() {
        let s = toy_space();
        assert_eq!(s.index_of("codec").unwrap(), 2);
        assert!(matches!(
            s.index_of("nope"),
            Err(SpaceError::UnknownParameter(_))
        ));
    }

    #[test]
    fn encode_decode_round_trip_for_defaults() {
        let s = toy_space();
        let d = s.default_configuration();
        let u = s.encode(&d);
        assert_eq!(u.len(), 4);
        assert!(u.iter().all(|&x| (0.0..=1.0).contains(&x)));
        let back = s.decode(&u);
        assert_eq!(back, d);
    }

    #[test]
    fn configuration_validates_arity_and_domains() {
        let s = toy_space();
        assert!(matches!(
            s.configuration(vec![ParamValue::Int(4)]),
            Err(SpaceError::ArityMismatch { .. })
        ));
        let bad = s.configuration(vec![
            ParamValue::Int(99),
            ParamValue::Float(0.5),
            ParamValue::Categorical(0),
            ParamValue::Bool(false),
        ]);
        assert!(matches!(bad, Err(SpaceError::OutOfDomain { .. })));
    }

    #[test]
    fn samples_are_valid_and_vary() {
        let s = toy_space();
        let mut rng = StdRng::seed_from_u64(1);
        let configs = s.sample_n(50, &mut rng);
        for c in &configs {
            s.validate(c).unwrap();
        }
        let distinct: std::collections::HashSet<String> =
            configs.iter().map(Configuration::dedup_key).collect();
        assert!(distinct.len() > 10, "samples should be diverse");
    }

    #[test]
    fn low_discrepancy_configs_valid_and_deterministic() {
        let s = toy_space();
        let a = s.low_discrepancy(10, 5);
        let b = s.low_discrepancy(10, 5);
        assert_eq!(a, b);
        for c in &a {
            s.validate(c).unwrap();
        }
    }

    #[test]
    fn low_discrepancy_nth_matches_full_sequence() {
        let s = toy_space();
        let all = s.low_discrepancy(10, 5);
        for (i, expected) in all.iter().enumerate() {
            assert_eq!(&s.low_discrepancy_nth(i, 5), expected, "point {i}");
        }
    }

    #[test]
    fn neighbor_stays_valid_and_close() {
        let s = toy_space();
        let mut rng = StdRng::seed_from_u64(9);
        let base = s.default_configuration();
        let sub = crate::Subspace::full(&s, base.clone()).unwrap();
        for _ in 0..100 {
            let n = sub.neighbor(&base, 0.05, &mut rng);
            s.validate(&n).unwrap();
        }
        // With a tiny scale, the int parameter should rarely move far.
        let far = (0..100)
            .filter(|_| {
                let n = sub.neighbor(&base, 0.01, &mut rng);
                (n[0].as_int().unwrap() - 4).abs() > 4
            })
            .count();
        assert!(
            far < 10,
            "small perturbations should stay local ({far} far moves)"
        );
    }

    #[test]
    fn dim_kinds_classify() {
        let s = toy_space();
        assert_eq!(
            s.dim_kinds(),
            vec![
                DimKind::Numeric,
                DimKind::Numeric,
                DimKind::Categorical,
                DimKind::Categorical
            ]
        );
    }
}
