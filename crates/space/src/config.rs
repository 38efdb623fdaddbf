//! Concrete configurations (points in the space).

use crate::ParamValue;
use serde::{Deserialize, Serialize};

/// A configuration instance `x ∈ Λ_cs`: one value per parameter, ordered as
/// in the owning [`ConfigSpace`](crate::ConfigSpace).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Configuration {
    values: Vec<ParamValue>,
}

impl Configuration {
    /// Build from ordered values. Use
    /// [`ConfigSpace::configuration`](crate::ConfigSpace::configuration) to
    /// get validation against a space.
    pub fn new(values: Vec<ParamValue>) -> Self {
        Configuration { values }
    }

    /// Number of parameter values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the configuration is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Value at dimension `i`.
    pub fn get(&self, i: usize) -> &ParamValue {
        &self.values[i]
    }

    /// Replace the value at dimension `i`.
    pub fn set(&mut self, i: usize, value: ParamValue) {
        self.values[i] = value;
    }

    /// All values in parameter order.
    pub fn values(&self) -> &[ParamValue] {
        &self.values
    }

    /// Stable key for deduplication: the debug rendering of all values.
    /// Floats are formatted with full precision so distinct configurations
    /// never collide in practice.
    pub fn dedup_key(&self) -> String {
        let mut s = String::with_capacity(self.values.len() * 8);
        for v in &self.values {
            match v {
                ParamValue::Int(x) => {
                    s.push('i');
                    s.push_str(&x.to_string());
                }
                ParamValue::Float(x) => {
                    s.push('f');
                    s.push_str(&format!("{:e}", x));
                }
                ParamValue::Categorical(x) => {
                    s.push('c');
                    s.push_str(&x.to_string());
                }
                ParamValue::Bool(x) => s.push(if *x { 'T' } else { 'F' }),
            }
            s.push('|');
        }
        s
    }
}

impl std::ops::Index<usize> for Configuration {
    type Output = ParamValue;

    fn index(&self, i: usize) -> &ParamValue {
        &self.values[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let mut c = Configuration::new(vec![ParamValue::Int(3), ParamValue::Bool(true)]);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        assert_eq!(c[0], ParamValue::Int(3));
        c.set(0, ParamValue::Int(5));
        assert_eq!(c.get(0), &ParamValue::Int(5));
        assert_eq!(c.values().len(), 2);
    }

    #[test]
    fn dedup_keys_distinguish() {
        let a = Configuration::new(vec![ParamValue::Int(3), ParamValue::Bool(true)]);
        let b = Configuration::new(vec![ParamValue::Int(3), ParamValue::Bool(false)]);
        let c = Configuration::new(vec![ParamValue::Float(3.0), ParamValue::Bool(true)]);
        assert_ne!(a.dedup_key(), b.dedup_key());
        assert_ne!(a.dedup_key(), c.dedup_key());
        assert_eq!(a.dedup_key(), a.clone().dedup_key());
    }

    #[test]
    fn fast_key_matches_string_key_equality() {
        // The fast key is the row of value words the candidate
        // deduplication compares; within one space (fixed domain per
        // dimension) it must agree with the string key.
        let words = |c: &Configuration| -> Vec<u64> {
            c.values().iter().map(ParamValue::to_word).collect()
        };
        let mut configs = Vec::new();
        for f in [3.0, 3.0 + 1e-15, -0.0, 0.0] {
            for i in [3, -3] {
                for (cat, b) in [(0, true), (2, true), (2, false)] {
                    configs.push(Configuration::new(vec![
                        ParamValue::Float(f),
                        ParamValue::Int(i),
                        ParamValue::Categorical(cat),
                        ParamValue::Bool(b),
                    ]));
                }
            }
        }
        for a in &configs {
            for b in &configs {
                assert_eq!(
                    a.dedup_key() == b.dedup_key(),
                    words(a) == words(b),
                    "key equivalence diverged for {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn empty_configuration() {
        let c = Configuration::new(vec![]);
        assert!(c.is_empty());
        assert_eq!(c.dedup_key(), "");
    }
}
