//! # egemm-fp — numeric substrate for the EGEMM-TC reproduction
//!
//! This crate provides everything below the matrix level that the paper
//! *EGEMM-TC: Accelerating Scientific Computing on Tensor Cores with
//! Extended Precision* (PPoPP '21) depends on:
//!
//! * [`Half`] — a from-scratch software implementation of IEEE 754
//!   binary16 ("half precision"), the input datatype of the Tensor Core
//!   compute primitive. Conversions are correctly rounded (round-to-nearest,
//!   ties-to-even), subnormals, infinities and NaNs are fully supported, and
//!   arithmetic is correctly rounded via exact double-precision
//!   intermediates.
//! * [`split`] — the data-split techniques of §3.2: the paper's
//!   *round-split* (Figure 4b) and Markidis' *truncate-split* (Figure 4a),
//!   which decompose a binary32 value into a pair of binary16 values
//!   `(hi, lo)` such that `hi + lo` approximates the input with 21 or 20
//!   effective mantissa bits respectively.
//! * [`eft`] — classical error-free transforms (`two_sum`, `two_prod`,
//!   Veltkamp splitting) used by the Dekker \[7\] baseline and by the test
//!   oracles.
//! * [`dekker`] — double-half ("Dekker") arithmetic: the traditional
//!   16-instruction extended-precision emulation the paper compares against.
//! * [`formats`] — the precision formats of Table 1 (half, single,
//!   Markidis, extended) and their derived properties.
//! * [`error`] — error metrics, including the paper's Eq. 10 max-error
//!   metric and ULP distances.
//!
//! Everything in this crate is deterministic, `no_std`-style pure
//! computation (though we do link `std` for convenience) and is exercised
//! bit-for-bit by the precision experiments (Figure 7, artifact claims
//! *Profiling* and *Precision*).

pub mod convert;
pub mod dekker;
pub mod eft;
pub mod error;
pub mod formats;
pub mod half;
pub mod simd_split;
pub mod split;

pub use dekker::{DoubleHalf, DEKKER_FMA_HALF_INSTRUCTIONS, EGEMM_TC_INSTRUCTIONS};
pub use error::{max_abs_error, max_rel_error, rms_error, ulp_distance_f32, ErrorStats};
pub use formats::PrecisionFormat;
pub use half::Half;
pub use simd_split::{
    simd_split_available, split_planes, split_planes_f32, split_planes_f32_scalar,
    split_planes_f32_strided, split_planes_f32_strided_scalar, split_planes_scalar,
    split_strips_f32, split_strips_f32_scalar, SplitKernel,
};
pub use split::{round_split, truncate_split, Split, SplitScheme};
