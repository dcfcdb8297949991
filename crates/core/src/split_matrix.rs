//! Split-pair matrices: the data-layout the emulation kernels consume.
//!
//! `EGEMM-TC conducts data split on CUDA Cores and computes the GEMM on
//! Tensor Cores` (§3.2). [`SplitMatrix`] is the product of that split
//! phase, materialized: per-element `(hi, lo)` binary16 planes of a
//! binary32 matrix, plus cached exact binary32 expansions of both planes
//! (what the Tensor Core datapath sees after its internal widening).
//!
//! The engine never reads one: it splits raw operands while it packs
//! them. The planes serve readers that need them whole — the entrywise
//! oracle [`crate::emulated_gemm_entrywise`], the tiled Tensor-Core
//! simulator ([`crate::tensorize`]) and baselines that recombine planes
//! themselves.

use egemm_fp::{split_planes, Half, SplitKernel, SplitScheme};
use egemm_matrix::Matrix;

/// A binary32 matrix split into hi/lo binary16 planes.
#[derive(Debug, Clone)]
pub struct SplitMatrix {
    rows: usize,
    cols: usize,
    /// High plane (binary16 bit-exact storage).
    pub hi: Matrix<Half>,
    /// Low plane.
    pub lo: Matrix<Half>,
    /// Exact binary32 widening of `hi` (row-major). Private, like
    /// `lo_f32`: the JIT's fused multiply-add is exact only while every
    /// plane value is a widened binary16, so only the split writes
    /// them; read through [`SplitMatrix::plane`].
    hi_f32: Vec<f32>,
    /// Exact binary32 widening of `lo`.
    lo_f32: Vec<f32>,
    /// The scheme used.
    pub scheme: SplitScheme,
}

impl SplitMatrix {
    /// Split every element of `src` with `scheme`. This is the O(N²)
    /// "CUDA-core" phase of the emulation, run on the calling thread and
    /// SIMD-dispatched where the hardware allows ([`SplitKernel::Auto`]
    /// — bit-identical to the scalar path).
    pub fn split(src: &Matrix<f32>, scheme: SplitScheme) -> SplitMatrix {
        SplitMatrix::split_with(src, scheme, SplitKernel::default())
    }

    /// [`SplitMatrix::split`] with an explicit split kernel.
    pub fn split_with(src: &Matrix<f32>, scheme: SplitScheme, kernel: SplitKernel) -> SplitMatrix {
        let rows = src.rows();
        let cols = src.cols();
        let n = rows * cols;
        let mut hi_bits = vec![Half::ZERO; n];
        let mut lo_bits = vec![Half::ZERO; n];
        let mut hi_f32 = vec![0f32; n];
        let mut lo_f32 = vec![0f32; n];
        // The split is elementwise, so one call covers the whole buffer.
        split_planes(
            kernel,
            scheme,
            src.as_slice(),
            &mut hi_bits,
            &mut lo_bits,
            &mut hi_f32,
            &mut lo_f32,
        );
        SplitMatrix {
            rows,
            cols,
            hi: Matrix::from_vec(rows, cols, hi_bits),
            lo: Matrix::from_vec(rows, cols, lo_bits),
            hi_f32,
            lo_f32,
            scheme,
        }
    }

    /// Rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The exact binary32 widening of the plane selected by `lo_part`:
    /// `lo` if true, else `hi` (row-major).
    #[inline]
    pub fn plane(&self, lo_part: bool) -> &[f32] {
        if lo_part {
            &self.lo_f32
        } else {
            &self.hi_f32
        }
    }

    /// Recombine into an approximate copy of the source (diagnostics).
    pub fn reconstruct(&self) -> Matrix<f64> {
        Matrix::from_fn(self.rows, self.cols, |r, c| {
            self.hi.get(r, c).to_f64() + self.lo.get(r, c).to_f64()
        })
    }

    /// Bytes of binary16 data this split occupies (both planes) — 2x the
    /// half-precision source, the "2x memory overhead" of §3.2 when data
    /// reuse is designed well.
    pub fn bytes(&self) -> usize {
        2 * 2 * self.rows * self.cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_matches_scalar_split() {
        let src = Matrix::<f32>::random_uniform(17, 23, 5);
        let sm = SplitMatrix::split(&src, SplitScheme::Round);
        for r in 0..17 {
            for c in 0..23 {
                let s = egemm_fp::round_split(src.get(r, c));
                assert_eq!(sm.hi.get(r, c).to_bits(), s.hi.to_bits());
                assert_eq!(sm.lo.get(r, c).to_bits(), s.lo.to_bits());
                assert_eq!(sm.plane(false)[r * 23 + c], s.hi.to_f32());
            }
        }
    }

    #[test]
    fn truncate_scheme_respected() {
        let src = Matrix::<f32>::random_uniform(8, 8, 6);
        let sm = SplitMatrix::split(&src, SplitScheme::Truncate);
        for r in 0..8 {
            for c in 0..8 {
                let s = egemm_fp::truncate_split(src.get(r, c));
                assert_eq!(sm.hi.get(r, c).to_bits(), s.hi.to_bits());
            }
        }
    }

    #[test]
    fn split_kernels_bit_identical() {
        // 33 columns: each row exercises the 8-lane SIMD body and a
        // ragged scalar tail.
        let src = Matrix::<f32>::random_uniform(13, 33, 9);
        for scheme in [SplitScheme::Round, SplitScheme::Truncate] {
            let auto = SplitMatrix::split_with(&src, scheme, SplitKernel::Auto);
            let scalar = SplitMatrix::split_with(&src, scheme, SplitKernel::Scalar);
            assert_eq!(auto.hi.as_slice(), scalar.hi.as_slice());
            assert_eq!(auto.lo.as_slice(), scalar.lo.as_slice());
            for lo_part in [false, true] {
                let scalar_plane = scalar.plane(lo_part);
                for (x, y) in auto.plane(lo_part).iter().zip(scalar_plane) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }

    #[test]
    fn reconstruction_error_bounded() {
        let src = Matrix::<f32>::random_uniform(32, 32, 7);
        let sm = SplitMatrix::split(&src, SplitScheme::Round);
        let rec = sm.reconstruct();
        for r in 0..32 {
            for c in 0..32 {
                let x = src.get(r, c) as f64;
                let err = (rec.get(r, c) - x).abs();
                assert!(err <= x.abs() * 2f64.powi(-21) + 2f64.powi(-25));
            }
        }
    }

    #[test]
    fn byte_accounting() {
        let src = Matrix::<f32>::zeros(10, 20);
        let sm = SplitMatrix::split(&src, SplitScheme::Round);
        assert_eq!(sm.bytes(), 800);
    }
}
