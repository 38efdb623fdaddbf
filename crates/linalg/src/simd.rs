//! Accounting for the SIMD-style blocked kernels.
//!
//! The blocked kernels in this crate ([`Cholesky`] factorization panels,
//! multi-RHS triangular solves, [`Matrix::matmul`] microkernels, and the
//! kernel-row assembly in `otune-gp`) widen their inner loops to
//! [`LANES`] independent f64 accumulators. The lanes always map to
//! *independent outputs* (distinct matrix entries, distinct columns,
//! distinct candidates) — never to partial sums of one output — so every
//! output element still accumulates its terms in the exact scalar order
//! and the blocked results are bitwise identical to the scalar reference
//! loops. What the blocking buys is instruction-level parallelism: four
//! dependent multiply-add chains run in lockstep instead of one, which is
//! where the serial-math-bound suggest path spends its time. Rust never
//! contracts a multiply and an add into a fused multiply-add, so every
//! chain rounds each product and each sum separately, exactly as the
//! scalar loop does — which is what keeps the bits.
//!
//! The blocked kernels are the only production path. The scalar
//! reference loops (`try_factor_into_scalar`,
//! `solve_lower_batch_in_place_scalar`, `matmul_scalar`) are kept as
//! hidden oracles that the `to_bits` proptests compare against.
//!
//! [`Cholesky`]: crate::Cholesky
//! [`Matrix::matmul`]: crate::Matrix::matmul

use std::sync::atomic::{AtomicU64, Ordering};

/// Lane width of the blocked kernels: 4 independent f64 accumulators —
/// two 128-bit registers on the baseline x86-64 (SSE2) target that
/// release builds use, and two NEON registers — so the lockstep loops
/// vectorize cleanly, while keeping tail handling cheap for the small
/// matrices the suggest path works with.
pub const LANES: usize = 4;

/// Process-wide count of 4-lane blocks executed by blocked kernels.
static SIMD_BLOCKS: AtomicU64 = AtomicU64::new(0);

/// Add `n` executed lane blocks to the process-wide counter. Kernels
/// batch their counts locally and call this once per invocation, so the
/// atomic never sits on a hot inner loop.
#[inline]
pub fn record_blocks(n: u64) {
    if n > 0 {
        SIMD_BLOCKS.fetch_add(n, Ordering::Relaxed);
    }
}

/// Total 4-lane blocks executed by blocked kernels so far in this
/// process. Surfaced as the `simd_blocks` telemetry gauge.
pub fn blocks() -> u64 {
    SIMD_BLOCKS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let before = blocks();
        record_blocks(3);
        record_blocks(0); // no-op, must not panic
        assert!(blocks() >= before + 3);
    }
}
