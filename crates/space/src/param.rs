//! Parameter domains and values.

use crate::{Result, SpaceError};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The domain `Λⁱ` of a single Spark parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Domain {
    /// Integer range `[lo, hi]` (inclusive). `log` selects log-uniform
    /// encoding/sampling, appropriate for buffer-size style parameters.
    Int {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
        /// Log-uniform scale (requires `lo >= 1`).
        log: bool,
    },
    /// Continuous range `[lo, hi]`.
    Float {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
        /// Log-uniform scale (requires `lo > 0`).
        log: bool,
    },
    /// Unordered finite choices (e.g. serializers, compression codecs).
    Categorical {
        /// Choice labels, indexed by position.
        choices: Vec<String>,
    },
    /// Boolean flag.
    Bool,
}

impl Domain {
    /// Number of distinct values for discrete domains; `None` for floats.
    pub fn cardinality(&self) -> Option<u64> {
        match self {
            Domain::Int { lo, hi, .. } => Some((hi - lo + 1) as u64),
            Domain::Float { .. } => None,
            Domain::Categorical { choices } => Some(choices.len() as u64),
            Domain::Bool => Some(2),
        }
    }

    /// Whether the domain is numeric (int or float) as opposed to
    /// categorical/boolean. Numeric domains use the Matérn kernel and can be
    /// moved by approximate gradient descent; the rest use the Hamming kernel.
    pub fn is_numeric(&self) -> bool {
        matches!(self, Domain::Int { .. } | Domain::Float { .. })
    }

    /// Validate that `value` is of the right type and inside the domain.
    pub fn validate(&self, value: &ParamValue, name: &str) -> Result<()> {
        let type_err = || SpaceError::TypeMismatch {
            param: name.to_string(),
        };
        let range_err = || SpaceError::OutOfDomain {
            param: name.to_string(),
        };
        match (self, value) {
            (Domain::Int { lo, hi, .. }, ParamValue::Int(v)) => {
                if v < lo || v > hi {
                    Err(range_err())
                } else {
                    Ok(())
                }
            }
            (Domain::Float { lo, hi, .. }, ParamValue::Float(v)) => {
                if !v.is_finite() || v < lo || v > hi {
                    Err(range_err())
                } else {
                    Ok(())
                }
            }
            (Domain::Categorical { choices }, ParamValue::Categorical(idx)) => {
                if *idx >= choices.len() {
                    Err(range_err())
                } else {
                    Ok(())
                }
            }
            (Domain::Bool, ParamValue::Bool(_)) => Ok(()),
            _ => Err(type_err()),
        }
    }

    /// Map a value in this domain to the unit interval `[0, 1]`.
    ///
    /// Numeric domains use (log-)linear scaling; booleans map to `{0, 1}`;
    /// categorical choices map to `idx / (k - 1)` — only equality of encoded
    /// values is meaningful for them.
    pub fn encode(&self, value: &ParamValue) -> f64 {
        self.encode_with(None, value)
    }

    /// Map a unit-interval coordinate back into the domain (inverse of
    /// [`Domain::encode`] up to rounding for discrete domains).
    pub fn decode(&self, u: f64) -> ParamValue {
        self.decode_with(None, u)
    }

    /// Where the unit coordinate `u` lands after a decode/encode round
    /// trip, `encode(decode(u))`, together with the decoded value's
    /// [word](ParamValue::to_word).
    ///
    /// Not idempotent in general: for float domains a second `snap` can
    /// move the coordinate by an ulp, so chains of decodes must be
    /// replayed snap for snap.
    pub fn snap(&self, u: f64) -> (f64, u64) {
        self.snap_with(None, u)
    }

    /// The value a [word](ParamValue::to_word) of this domain stands for.
    pub fn from_word(&self, word: u64) -> ParamValue {
        match self {
            Domain::Int { .. } => ParamValue::Int(word as i64),
            Domain::Float { .. } => ParamValue::Float(f64::from_bits(word)),
            Domain::Categorical { .. } => ParamValue::Categorical(word as usize),
            Domain::Bool => ParamValue::Bool(word != 0),
        }
    }

    /// A numeric domain's scale with its logarithms taken, for loops that
    /// map many coordinates of one dimension (`None` for discrete
    /// domains). Passing it to the `*_with` methods gives the same bits
    /// as the plain methods, which build it per call.
    pub(crate) fn scale(&self) -> Option<Scale> {
        match *self {
            Domain::Int { lo, hi, log } => Some(Scale::new(lo as f64, hi as f64, log)),
            Domain::Float { lo, hi, log } => Some(Scale::new(lo, hi, log)),
            Domain::Categorical { .. } | Domain::Bool => None,
        }
    }

    /// [`Domain::snap`] with a prepared [`Domain::scale`].
    pub(crate) fn snap_with(&self, scale: Option<Scale>, u: f64) -> (f64, u64) {
        let value = self.decode_with(scale, u);
        (self.encode_with(scale, &value), value.to_word())
    }

    /// [`Domain::encode`] with an optional prepared [`Domain::scale`].
    pub(crate) fn encode_with(&self, scale: Option<Scale>, value: &ParamValue) -> f64 {
        match (self, value) {
            (Domain::Int { lo, hi, log }, ParamValue::Int(v)) => scale
                .unwrap_or_else(|| Scale::new(*lo as f64, *hi as f64, *log))
                .encode(*v as f64),
            (Domain::Float { lo, hi, log }, ParamValue::Float(v)) => scale
                .unwrap_or_else(|| Scale::new(*lo, *hi, *log))
                .encode(*v),
            (Domain::Categorical { choices }, ParamValue::Categorical(idx)) => {
                if choices.len() <= 1 {
                    0.0
                } else {
                    *idx as f64 / (choices.len() - 1) as f64
                }
            }
            (Domain::Bool, ParamValue::Bool(b)) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            // Type mismatches are caught by `validate`; encoding is only
            // called on validated configurations.
            _ => unreachable!("encode called with mismatched value type"),
        }
    }

    /// [`Domain::decode`] with an optional prepared [`Domain::scale`].
    fn decode_with(&self, scale: Option<Scale>, u: f64) -> ParamValue {
        let u = u.clamp(0.0, 1.0);
        match self {
            Domain::Int { lo, hi, log } => {
                let scale = scale.unwrap_or_else(|| Scale::new(*lo as f64, *hi as f64, *log));
                ParamValue::Int((scale.decode(u).round() as i64).clamp(*lo, *hi))
            }
            Domain::Float { lo, hi, log } => {
                let scale = scale.unwrap_or_else(|| Scale::new(*lo, *hi, *log));
                ParamValue::Float(scale.decode(u).clamp(*lo, *hi))
            }
            Domain::Categorical { choices } => {
                if choices.len() <= 1 {
                    ParamValue::Categorical(0)
                } else {
                    let idx = (u * (choices.len() - 1) as f64).round() as usize;
                    ParamValue::Categorical(idx.min(choices.len() - 1))
                }
            }
            Domain::Bool => ParamValue::Bool(u >= 0.5),
        }
    }

    /// One coordinate of a local perturbation with step `scale` (see
    /// [`Subspace::neighbor`](crate::Subspace::neighbor)): numeric
    /// coordinates take a Gaussian step of standard deviation `scale` in
    /// encoded space, discrete ones resample with probability `scale`.
    pub(crate) fn perturb(&self, u: f64, scale: f64, rng: &mut impl Rng) -> f64 {
        if self.is_numeric() {
            // Box–Muller keeps us independent of rand_distr.
            let (a, b): (f64, f64) = (rng.gen::<f64>().max(1e-12), rng.gen());
            let gauss = (-2.0 * a.ln()).sqrt() * (2.0 * std::f64::consts::PI * b).cos();
            (u + gauss * scale).clamp(0.0, 1.0)
        } else if rng.gen::<f64>() < scale {
            rng.gen()
        } else {
            u
        }
    }

    /// Draw exactly what [`Domain::perturb`] draws without computing the
    /// step, for coordinates whose perturbation is discarded.
    pub(crate) fn skip_perturb(&self, scale: f64, rng: &mut impl Rng) {
        if self.is_numeric() {
            rng.gen::<f64>();
            rng.gen::<f64>();
        } else if rng.gen::<f64>() < scale {
            rng.gen::<f64>();
        }
    }
}

/// (Log-)linear map of a numeric range `[lo, hi]` onto `[0, 1]`, with
/// the logarithms of the bounds taken once.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scale {
    lo: f64,
    hi: f64,
    /// `(ln lo, ln hi)` on log scales.
    ln: Option<(f64, f64)>,
}

impl Scale {
    fn new(lo: f64, hi: f64, log: bool) -> Self {
        Scale {
            lo,
            hi,
            ln: log.then(|| (lo.ln(), hi.ln())),
        }
    }

    fn encode(&self, v: f64) -> f64 {
        if self.hi <= self.lo {
            return 0.0;
        }
        let t = match self.ln {
            Some((ln_lo, ln_hi)) => {
                debug_assert!(self.lo > 0.0, "log domains require positive bounds");
                (v.ln() - ln_lo) / (ln_hi - ln_lo)
            }
            None => (v - self.lo) / (self.hi - self.lo),
        };
        t.clamp(0.0, 1.0)
    }

    fn decode(&self, u: f64) -> f64 {
        if self.hi <= self.lo {
            return self.lo;
        }
        match self.ln {
            Some((ln_lo, ln_hi)) => (ln_lo + u * (ln_hi - ln_lo)).exp(),
            None => self.lo + u * (self.hi - self.lo),
        }
    }
}

/// The value of a single Spark parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ParamValue {
    /// Integer value.
    Int(i64),
    /// Continuous value.
    Float(f64),
    /// Index into the domain's choice list.
    Categorical(usize),
    /// Boolean flag.
    Bool(bool),
}

impl ParamValue {
    /// The value as `f64` (categorical → index, bool → 0/1). Used by
    /// resource formulas that read e.g. `spark.executor.instances`.
    pub fn as_f64(&self) -> f64 {
        match self {
            ParamValue::Int(v) => *v as f64,
            ParamValue::Float(v) => *v,
            ParamValue::Categorical(idx) => *idx as f64,
            ParamValue::Bool(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Integer accessor; `None` for non-int values.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            ParamValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Float accessor; `None` for non-float values.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            ParamValue::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Bool accessor; `None` for non-bool values.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            ParamValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Categorical-index accessor; `None` for non-categorical values.
    pub fn as_categorical(&self) -> Option<usize> {
        match self {
            ParamValue::Categorical(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as one machine word: the integer, index or flag, or
    /// the float's bit pattern. Within one domain two values are equal
    /// exactly when their words are (floats compare by bits, so `-0.0`
    /// and `0.0` differ, as in [`Configuration::dedup_key`]).
    ///
    /// [`Configuration::dedup_key`]: crate::Configuration::dedup_key
    pub fn to_word(&self) -> u64 {
        match self {
            ParamValue::Int(v) => *v as u64,
            ParamValue::Float(v) => v.to_bits(),
            ParamValue::Categorical(idx) => *idx as u64,
            ParamValue::Bool(b) => u64::from(*b),
        }
    }
}

impl std::fmt::Display for ParamValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamValue::Int(v) => write!(f, "{v}"),
            ParamValue::Float(v) => write!(f, "{v:.4}"),
            ParamValue::Categorical(idx) => write!(f, "#{idx}"),
            ParamValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// A named, typed Spark parameter with its default value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Parameter {
    /// Spark property name, e.g. `spark.executor.memory`.
    pub name: String,
    /// Value domain.
    pub domain: Domain,
    /// Spark's default (or the platform's baseline) value.
    pub default: ParamValue,
}

impl Parameter {
    /// Construct a parameter, validating that the default lies in the domain.
    pub fn new(name: impl Into<String>, domain: Domain, default: ParamValue) -> Result<Self> {
        let name = name.into();
        domain.validate(&default, &name)?;
        Ok(Parameter {
            name,
            domain,
            default,
        })
    }

    /// Integer parameter shorthand.
    pub fn int(name: &str, lo: i64, hi: i64, default: i64) -> Self {
        Parameter::new(
            name,
            Domain::Int { lo, hi, log: false },
            ParamValue::Int(default),
        )
        .expect("static parameter definition must be valid")
    }

    /// Log-scaled integer parameter shorthand.
    pub fn log_int(name: &str, lo: i64, hi: i64, default: i64) -> Self {
        Parameter::new(
            name,
            Domain::Int { lo, hi, log: true },
            ParamValue::Int(default),
        )
        .expect("static parameter definition must be valid")
    }

    /// Float parameter shorthand.
    pub fn float(name: &str, lo: f64, hi: f64, default: f64) -> Self {
        Parameter::new(
            name,
            Domain::Float { lo, hi, log: false },
            ParamValue::Float(default),
        )
        .expect("static parameter definition must be valid")
    }

    /// Categorical parameter shorthand.
    pub fn categorical(name: &str, choices: &[&str], default_idx: usize) -> Self {
        Parameter::new(
            name,
            Domain::Categorical {
                choices: choices.iter().map(|s| s.to_string()).collect(),
            },
            ParamValue::Categorical(default_idx),
        )
        .expect("static parameter definition must be valid")
    }

    /// Boolean parameter shorthand.
    pub fn boolean(name: &str, default: bool) -> Self {
        Parameter::new(name, Domain::Bool, ParamValue::Bool(default))
            .expect("static parameter definition must be valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_encode_decode_round_trip() {
        let d = Domain::Int {
            lo: 1,
            hi: 100,
            log: false,
        };
        for v in [1i64, 17, 50, 100] {
            let u = d.encode(&ParamValue::Int(v));
            assert_eq!(d.decode(u), ParamValue::Int(v));
        }
    }

    #[test]
    fn log_int_encode_midpoint() {
        let d = Domain::Int {
            lo: 1,
            hi: 256,
            log: true,
        };
        let u = d.encode(&ParamValue::Int(16));
        assert!(
            (u - 0.5).abs() < 1e-12,
            "16 is the geometric midpoint of [1,256]"
        );
        assert_eq!(d.decode(0.5), ParamValue::Int(16));
    }

    #[test]
    fn float_encode_decode() {
        let d = Domain::Float {
            lo: 0.4,
            hi: 0.9,
            log: false,
        };
        let u = d.encode(&ParamValue::Float(0.65));
        assert!((u - 0.5).abs() < 1e-12);
        match d.decode(u) {
            ParamValue::Float(v) => assert!((v - 0.65).abs() < 1e-12),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn categorical_encoding_preserves_identity() {
        let d = Domain::Categorical {
            choices: vec!["a".into(), "b".into(), "c".into()],
        };
        let us: Vec<f64> = (0..3)
            .map(|i| d.encode(&ParamValue::Categorical(i)))
            .collect();
        assert_eq!(us, vec![0.0, 0.5, 1.0]);
        for (i, &u) in us.iter().enumerate() {
            assert_eq!(d.decode(u), ParamValue::Categorical(i));
        }
    }

    #[test]
    fn bool_encoding() {
        let d = Domain::Bool;
        assert_eq!(d.encode(&ParamValue::Bool(false)), 0.0);
        assert_eq!(d.encode(&ParamValue::Bool(true)), 1.0);
        assert_eq!(d.decode(0.2), ParamValue::Bool(false));
        assert_eq!(d.decode(0.7), ParamValue::Bool(true));
    }

    #[test]
    fn validation_catches_type_and_range() {
        let d = Domain::Int {
            lo: 1,
            hi: 10,
            log: false,
        };
        assert!(d.validate(&ParamValue::Int(5), "p").is_ok());
        assert!(matches!(
            d.validate(&ParamValue::Int(11), "p"),
            Err(SpaceError::OutOfDomain { .. })
        ));
        assert!(matches!(
            d.validate(&ParamValue::Float(5.0), "p"),
            Err(SpaceError::TypeMismatch { .. })
        ));
        let c = Domain::Categorical {
            choices: vec!["x".into()],
        };
        assert!(c.validate(&ParamValue::Categorical(1), "p").is_err());
        let f = Domain::Float {
            lo: 0.0,
            hi: 1.0,
            log: false,
        };
        assert!(f.validate(&ParamValue::Float(f64::NAN), "p").is_err());
    }

    #[test]
    fn cardinality() {
        assert_eq!(
            Domain::Int {
                lo: 3,
                hi: 7,
                log: false
            }
            .cardinality(),
            Some(5)
        );
        assert_eq!(Domain::Bool.cardinality(), Some(2));
        assert_eq!(
            Domain::Categorical {
                choices: vec!["a".into(), "b".into()]
            }
            .cardinality(),
            Some(2)
        );
        assert_eq!(
            Domain::Float {
                lo: 0.0,
                hi: 1.0,
                log: false
            }
            .cardinality(),
            None
        );
    }

    #[test]
    fn numeric_classification() {
        assert!(Domain::Int {
            lo: 0,
            hi: 1,
            log: false
        }
        .is_numeric());
        assert!(Domain::Float {
            lo: 0.0,
            hi: 1.0,
            log: false
        }
        .is_numeric());
        assert!(!Domain::Bool.is_numeric());
        assert!(!Domain::Categorical { choices: vec![] }.is_numeric());
    }

    #[test]
    fn decode_clamps_out_of_range_coordinates() {
        let d = Domain::Int {
            lo: 1,
            hi: 10,
            log: false,
        };
        assert_eq!(d.decode(-0.5), ParamValue::Int(1));
        assert_eq!(d.decode(1.5), ParamValue::Int(10));
    }

    #[test]
    fn param_constructors_validate_defaults() {
        assert!(Parameter::new(
            "x",
            Domain::Int {
                lo: 1,
                hi: 5,
                log: false
            },
            ParamValue::Int(9)
        )
        .is_err());
        let p = Parameter::int("spark.executor.cores", 1, 8, 2);
        assert_eq!(p.default, ParamValue::Int(2));
    }

    #[test]
    fn words_round_trip_values() {
        let domains = [
            (
                Domain::Int {
                    lo: -5,
                    hi: 5,
                    log: false,
                },
                ParamValue::Int(-3),
            ),
            (
                Domain::Float {
                    lo: -1.0,
                    hi: 1.0,
                    log: false,
                },
                ParamValue::Float(-0.0),
            ),
            (
                Domain::Categorical {
                    choices: vec!["a".into(), "b".into()],
                },
                ParamValue::Categorical(1),
            ),
            (Domain::Bool, ParamValue::Bool(true)),
        ];
        for (d, v) in domains {
            assert_eq!(d.from_word(v.to_word()), v);
        }
        assert_ne!(
            ParamValue::Float(0.0).to_word(),
            ParamValue::Float(-0.0).to_word()
        );
    }

    #[test]
    fn snap_is_the_decode_encode_round_trip() {
        let d = Domain::Float {
            lo: 0.1,
            hi: 900.0,
            log: true,
        };
        for u in [0.0, 0.123456789, 0.5, 0.999, 1.0] {
            let v = d.decode(u);
            assert_eq!(d.snap(u), (d.encode(&v), v.to_word()));
        }
        let i = Domain::Int {
            lo: 1,
            hi: 10,
            log: false,
        };
        assert_eq!(i.snap(0.52), (5.0 / 9.0, 6));
    }

    #[test]
    fn value_accessors() {
        assert_eq!(ParamValue::Int(3).as_f64(), 3.0);
        assert_eq!(ParamValue::Bool(true).as_f64(), 1.0);
        assert_eq!(ParamValue::Categorical(2).as_f64(), 2.0);
        assert_eq!(ParamValue::Int(3).as_int(), Some(3));
        assert_eq!(ParamValue::Int(3).as_float(), None);
        assert_eq!(ParamValue::Float(0.5).as_float(), Some(0.5));
        assert_eq!(ParamValue::Bool(true).as_bool(), Some(true));
        assert_eq!(ParamValue::Categorical(1).as_categorical(), Some(1));
    }
}
