//! Lane width of the blocked kernels.
//!
//! The blocked kernels in this crate ([`Cholesky`] factorization panels
//! and multi-RHS triangular solves) and the kernel-row assembly in
//! `otune-gp` widen their inner loops to [`LANES`] independent f64
//! accumulators. The lanes always map to *independent outputs* (distinct
//! matrix entries, distinct columns, distinct candidates) — never to
//! partial sums of one output — so every output element still accumulates
//! its terms in the exact scalar order and the blocked results are
//! bitwise identical to the scalar reference loops. What the blocking
//! buys is instruction-level parallelism: four dependent multiply-add
//! chains run in lockstep instead of one, which is where the
//! serial-math-bound suggest path spends its time. Rust never contracts a
//! multiply and an add into a fused multiply-add, so every chain rounds
//! each product and each sum separately, exactly as the scalar loop does
//! — which is what keeps the bits.
//!
//! The blocked kernels are the only production path. The scalar
//! reference loops (`try_factor_into_scalar`,
//! `solve_lower_batch_in_place_scalar`) are kept as hidden oracles that
//! the `to_bits` proptests compare against.
//!
//! [`Cholesky`]: crate::Cholesky

/// Lane width of the blocked kernels: 4 independent f64 accumulators —
/// two 128-bit registers on the baseline x86-64 (SSE2) target that
/// release builds use, and two NEON registers — so the lockstep loops
/// vectorize cleanly, while keeping tail handling cheap for the small
/// matrices the suggest path works with.
pub const LANES: usize = 4;
