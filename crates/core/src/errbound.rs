//! A-priori forward error bounds for the emulation schemes — the theory
//! behind the Figure 7 curves.
//!
//! For a dot product of length `k` with inputs bounded by `R` (the paper's
//! workloads: `R = 1`), the emulated result differs from the exact one by
//! at most the sum of two contributions:
//!
//! * **representation error**: each operand is stored with `t` effective
//!   mantissa bits (Table 1: 21 round-split, 20 truncate-split, 10 plain
//!   half), so each product picks up at most `2·2^-(t+1) + 2^-2(t+1)`
//!   relative error (plus `2^-2(t+1)·R²` per dropped lo·lo term for the
//!   published 3-term Markidis); summed over `k` terms;
//! * **accumulation error**: the binary32 running sum incurs the standard
//!   Higham `gamma_n = n·u/(1 − n·u)` factor over the number of additions
//!   (`k · terms` for the fused emulation), scaled by the worst-case
//!   partial-sum magnitude `k·R²`.
//!
//! These are *worst-case* bounds — random ±1 data cancels heavily, so
//! measured max errors sit 1–2 orders below them — and every measured
//! value must stay under its bound (the tests enforce it). The module also
//! exposes the bound's crossover structure: below `k*` the representation
//! term dominates (where the round-vs-truncate gap is visible, cf.
//! EXPERIMENTS.md Note 1), above it the shared accumulation term does.

use crate::emulation::EmulationScheme;

/// Unit roundoff of binary32.
const U32: f64 = 5.960464477539063e-8; // 2^-24

/// Higham's `gamma_n = n·u / (1 − n·u)` (requires `n·u < 1`).
pub fn gamma(n: usize, u: f64) -> f64 {
    let nu = n as f64 * u;
    assert!(nu < 1.0, "gamma undefined for n*u >= 1");
    nu / (1.0 - nu)
}

/// The two components of the worst-case bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorBound {
    /// Operand-representation contribution (scheme-dependent: the Table 1
    /// effective mantissa width and the dropped lo·lo term).
    pub representation: f64,
    /// Binary32-accumulation contribution (shared machinery; grows with
    /// the number of adds).
    pub accumulation: f64,
}

impl ErrorBound {
    /// Total worst-case absolute error.
    pub fn total(&self) -> f64 {
        self.representation + self.accumulation
    }
}

/// Worst-case error components for one output element of an emulated
/// `k`-deep dot product with inputs in `[-r, r]`.
pub fn dot_error_components(scheme: EmulationScheme, k: usize, r: f64) -> ErrorBound {
    let t = scheme.format().mantissa_bits as i32;
    let u_rep = 2f64.powi(-(t + 1));
    // Per-product representation error: (a + da)(b + db) with
    // |da|,|db| <= u_rep * r -> |error| <= 2*u_rep*r^2 + u_rep^2*r^2.
    let mut per_product = 2.0 * u_rep * r * r + u_rep * u_rep * r * r;
    // The published Markidis drops the lo.lo product entirely: its
    // magnitude is bounded by (2^-11 r)^2 per term.
    if matches!(scheme, EmulationScheme::Markidis) {
        per_product += 2f64.powi(-22) * r * r;
    }
    let representation = k as f64 * per_product;
    // Accumulation: one f32 add per term per emulation instruction, over a
    // partial sum bounded by k*r^2 (plus the split residual magnitudes,
    // absorbed into r^2).
    let adds = k * scheme.tc_instructions();
    let accumulation = gamma(adds, U32) * k as f64 * r * r;
    ErrorBound {
        representation,
        accumulation,
    }
}

/// Total worst-case absolute error bound (see [`dot_error_components`]).
pub fn dot_error_bound(scheme: EmulationScheme, k: usize, r: f64) -> f64 {
    dot_error_components(scheme, k, r).total()
}

/// [`dot_error_bound`] extended for `D = A·B + C`: when a C term with
/// magnitude up to `c_abs` seeds the binary32 accumulator, every
/// subsequent add can also round against it, contributing at most
/// `gamma(adds, u32) · c_abs` on top of the product bound. Used by the
/// numerical-health probe (`telemetry`), whose sampled elements must be
/// judged against a bound that stays sound on the C-accumulating entry
/// points.
pub fn dot_error_bound_with_c(scheme: EmulationScheme, k: usize, r: f64, c_abs: f64) -> f64 {
    let mut bound = dot_error_bound(scheme, k, r);
    if c_abs > 0.0 {
        bound += gamma(k * scheme.tc_instructions(), U32) * c_abs;
    }
    bound
}

/// The reduction depth `k*` at which the accumulation term overtakes the
/// representation term for a scheme (inputs in `[-r, r]`); `None` if the
/// representation term dominates over the whole queried range.
///
/// Note these are worst-case terms: the accumulation bound grows linearly
/// in the add count while random-sign data cancels to ~sqrt growth, so the
/// *measured* crossover sits later than `k*` — but the structure (the
/// extended schemes' representation advantage is masked beyond moderate
/// depths) is the same one EXPERIMENTS.md Note 1 measures.
pub fn crossover_k(scheme: EmulationScheme, r: f64, k_max: usize) -> Option<usize> {
    let mut k = 8;
    while k <= k_max {
        let b = dot_error_components(scheme, k, r);
        if b.accumulation > b.representation {
            return Some(k);
        }
        k *= 2;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emulation::emulated_gemm;
    use egemm_fp::max_abs_error;
    use egemm_matrix::{gemm_f64_of_f32, Matrix};

    #[test]
    fn gamma_basics() {
        assert!(gamma(1, U32) > U32 * 0.999);
        assert!(gamma(1000, U32) < 1000.0 * U32 * 1.001);
        assert!(gamma(2000, U32) > gamma(1000, U32));
    }

    #[test]
    #[should_panic(expected = "gamma undefined")]
    fn gamma_domain_checked() {
        gamma(1 << 25, 1e-7);
    }

    #[test]
    fn representation_components_ordered_like_table_1() {
        // The scheme-dependent component follows the Table 1 precision
        // ordering at every depth. (Total bounds need not: EGEMM-TC's 4th
        // accumulation instruction can outweigh Markidis' representation
        // handicap in the worst case.)
        for k in [16usize, 256, 4096] {
            let eg = dot_error_components(EmulationScheme::EgemmTc, k, 1.0);
            let mk = dot_error_components(EmulationScheme::Markidis, k, 1.0);
            let half = dot_error_components(EmulationScheme::TcHalf, k, 1.0);
            assert!(eg.representation < mk.representation, "k={k}");
            assert!(mk.representation < half.representation, "k={k}");
            // Total bound vs plain half: the emulation always wins.
            assert!(eg.total() < half.total(), "k={k}");
        }
    }

    #[test]
    fn measured_errors_stay_under_the_bounds() {
        // Worst-case bounds must dominate measured max error at every
        // scheme and depth (vs the f64 ground truth, inputs U[-1,1]).
        for scheme in [
            EmulationScheme::EgemmTc,
            EmulationScheme::Markidis,
            EmulationScheme::MarkidisFourTerm,
            EmulationScheme::TcHalf,
        ] {
            for k in [16usize, 128, 1024] {
                let a = Matrix::<f32>::random_uniform(32, k, 1);
                let b = Matrix::<f32>::random_uniform(k, 32, 2);
                let truth = gemm_f64_of_f32(&a, &b).to_f64_vec();
                let d = emulated_gemm(&a, &b, None, scheme);
                let measured = max_abs_error(&d.to_f64_vec(), &truth);
                let bound = dot_error_bound(scheme, k, 1.0);
                assert!(
                    measured <= bound,
                    "{scheme:?} k={k}: measured {measured} > bound {bound}"
                );
                // And the bound is not vacuous: within ~4 orders of the
                // measurement.
                assert!(
                    bound <= measured.max(1e-12) * 2e4,
                    "{scheme:?} k={k}: bound {bound} vacuous vs {measured}"
                );
            }
        }
    }

    #[test]
    fn crossover_matches_the_note1_finding() {
        // For EGEMM-TC the accumulation term overtakes representation at
        // moderate k — the reason the Figure 7 Markidis gap is masked at
        // GEMM scale but visible at small k (EXPERIMENTS.md Note 1).
        let k_star = crossover_k(EmulationScheme::EgemmTc, 1.0, 1 << 20)
            .expect("accumulation must eventually dominate");
        assert!(
            (8..=4096).contains(&k_star),
            "crossover at k = {k_star} (expected small-to-moderate depths)"
        );
        // Plain half precision: representation dominates far longer.
        let k_half = crossover_k(EmulationScheme::TcHalf, 1.0, 1 << 14);
        assert!(
            k_half.is_none() || k_half.unwrap() > k_star,
            "half-precision crossover {k_half:?} vs extended {k_star}"
        );
    }

    #[test]
    fn c_term_widens_the_bound_monotonically() {
        let base = dot_error_bound(EmulationScheme::EgemmTc, 256, 1.0);
        let with_zero = dot_error_bound_with_c(EmulationScheme::EgemmTc, 256, 1.0, 0.0);
        let with_c = dot_error_bound_with_c(EmulationScheme::EgemmTc, 256, 1.0, 10.0);
        assert_eq!(base, with_zero);
        assert!(with_c > base);
        // The extra term is linear in |C|.
        let with_2c = dot_error_bound_with_c(EmulationScheme::EgemmTc, 256, 1.0, 20.0);
        let ratio = (with_2c - base) / (with_c - base);
        assert!((ratio - 2.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn bounds_scale_with_input_range() {
        let b1 = dot_error_bound(EmulationScheme::EgemmTc, 256, 1.0);
        let b2 = dot_error_bound(EmulationScheme::EgemmTc, 256, 2.0);
        assert!((b2 / b1 - 4.0).abs() < 1e-6, "quadratic in r: {}", b2 / b1);
    }
}
