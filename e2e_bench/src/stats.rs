//! Order statistics for latency samples, and the FNV-1a trace digest.

use otune_bench::percentile;

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.75];

/// Samples that must lie beyond a percentile before it counts as a tail.
const MIN_BEYOND: usize = 10;

/// Median, quartiles and tail of one sample set.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Summary {
    pub n: usize,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    /// `(q, value)` at the highest ladder percentile with at least
    /// [`MIN_BEYOND`] samples beyond it; `None` for small sample sets.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(v: &[f64]) -> Summary {
        Summary {
            n: v.len(),
            p25: percentile(v, 0.25),
            p50: percentile(v, 0.5),
            p75: percentile(v, 0.75),
            tail: tail_quantile(v.len()).map(|q| (q, percentile(v, q))),
        }
    }
}

/// Samples strictly beyond the interpolated `q` percentile of `n` samples.
fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - (q * (n - 1) as f64).floor() as usize
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] of `n`
/// samples beyond it.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&q| beyond(n, q) >= MIN_BEYOND)
}

/// Median of a sample set (0 for an empty one).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// FNV-1a over a byte stream.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64s(&mut self, values: &[f64]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(0), None);
        assert_eq!(tail_quantile(10), None, "fleet-sized sets have no tail");
        assert_eq!(tail_quantile(37), None);
        assert_eq!(tail_quantile(38), Some(0.75));
        assert_eq!(tail_quantile(101), Some(0.9));
        assert_eq!(tail_quantile(200), Some(0.95));
        assert_eq!(tail_quantile(1001), Some(0.99));
        assert_eq!(tail_quantile(20_000), Some(0.999));
        for n in [38, 101, 200, 240, 1001, 3000] {
            let q = tail_quantile(n).unwrap();
            assert!(beyond(n, q) >= MIN_BEYOND, "n={n} q={q}");
        }
    }

    #[test]
    fn summary_reports_quartiles_and_tail() {
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.n, 200);
        assert_eq!(s.p50, 100.5);
        assert_eq!(s.p25, 50.75);
        assert_eq!(s.p75, 150.25);
        let (q, tail) = s.tail.unwrap();
        assert_eq!(q, 0.95);
        assert_eq!(tail, percentile(&v, 0.95));
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).tail, None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn fnv1a_matches_the_reference_vector() {
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
        let (mut a, mut b) = (Fnv::default(), Fnv::default());
        a.f64s(&[0.0]);
        b.f64s(&[-0.0]);
        assert_ne!(a.0, b.0, "the digest sees sign bits");
    }
}
