//! cuBLAS-TC-Half: `cublasGemmEx` with half inputs on Tensor Cores
//! (Table 5).
//!
//! The fastest — and least accurate — comparison point: inputs demoted to
//! binary16 (one rounding per element, no split), accumulation in
//! binary32. This is the precision baseline of Figure 7 (EGEMM-TC reduces
//! its max error ~350x) and the performance ceiling of the TC kernels
//! (a quarter of the emulation's Tensor Core work).

use crate::GemmBaseline;
use egemm::{build_kernel, emulated_gemm, EmulationScheme, KernelOpts, TilingConfig};
use egemm_matrix::{GemmShape, Matrix};
use egemm_tcsim::{kernel_time, DeviceSpec, KernelTiming};

/// The `cublasGemmEx` half-precision baseline.
#[derive(Debug, Clone)]
pub struct CublasTcHalf {
    /// Device whose analytic tiling the vendor kernel is assumed to match.
    pub config: TilingConfig,
}

impl CublasTcHalf {
    /// Vendor kernel with the device-tuned tiling.
    pub fn new(spec: DeviceSpec) -> CublasTcHalf {
        let _ = spec; // same SM resources on both evaluated devices
        CublasTcHalf {
            config: TilingConfig::T4_PAPER,
        }
    }
}

impl GemmBaseline for CublasTcHalf {
    fn name(&self) -> &'static str {
        "cuBLAS-TC-Half"
    }

    fn compute(&self, a: &Matrix<f32>, b: &Matrix<f32>) -> Matrix<f32> {
        emulated_gemm(a, b, None, EmulationScheme::TcHalf)
    }

    fn time(&self, spec: &DeviceSpec, shape: GemmShape) -> KernelTiming {
        let desc = build_kernel(
            spec,
            &self.config,
            shape,
            EmulationScheme::TcHalf,
            KernelOpts::default(),
        );
        kernel_time(spec, &desc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egemm_fp::{max_abs_error, Half};
    use egemm_matrix::gemm_f64_of_f32;

    #[test]
    fn numerics_are_half_inputs_f32_accumulate() {
        let a = Matrix::<f32>::random_uniform(16, 16, 1);
        let b = Matrix::<f32>::random_uniform(16, 16, 2);
        let d = CublasTcHalf::new(DeviceSpec::t4()).compute(&a, &b);
        // Scalar oracle.
        for i in 0..16 {
            for j in 0..16 {
                let mut acc = 0f32;
                for k in 0..16 {
                    acc +=
                        Half::from_f32(a.get(i, k)).to_f32() * Half::from_f32(b.get(k, j)).to_f32();
                }
                assert_eq!(d.get(i, j).to_bits(), acc.to_bits());
            }
        }
    }

    #[test]
    fn fastest_tc_kernel_but_least_accurate() {
        let spec = DeviceSpec::t4();
        let shape = GemmShape::square(4096);
        let half = CublasTcHalf::new(spec);
        let t_half = half.tflops(&spec, shape);
        let eg = crate::EgemmTc::auto(spec);
        let t_eg = eg.tflops(&spec, shape);
        assert!(t_half > t_eg, "half {t_half} vs egemm {t_eg}");
        // But nowhere near 4x faster: memory starts to bind.
        assert!(t_half < 4.0 * t_eg);

        let a = Matrix::<f32>::random_uniform(128, 128, 5);
        let b = Matrix::<f32>::random_uniform(128, 128, 6);
        let truth = gemm_f64_of_f32(&a, &b).to_f64_vec();
        let e_half = max_abs_error(&half.compute(&a, &b).to_f64_vec(), &truth);
        let e_eg = max_abs_error(&eg.compute(&a, &b).to_f64_vec(), &truth);
        assert!(
            e_half > 30.0 * e_eg,
            "half err {e_half} vs egemm err {e_eg}"
        );
    }
}
