//! Markidis \[20\]: the truncate-split emulation on Tensor Cores (Table 5).
//!
//! The closest prior work: 4 `wmma::mma_sync` product terms like
//! Algorithm 1 but with (a) truncate-split — one bit less precision
//! (Table 1, Figure 7), and (b) a CUDA-level WMMA kernel — the paper tried
//! back-porting its own optimizations to this kernel and "the performance
//! remains similar" because the CUDA interface cannot express them (§7.3).
//! The model therefore gives Markidis:
//!
//! * the 16x16x16 WMMA accumulation grouping (`t_k = 16`);
//! * a (64, 64, 16) block tile with one 16x16 WMMA tile per warp — no
//!   intra-warp FRAG reuse is possible, so every `mma_sync` reloads its
//!   operand fragments from shared memory;
//! * compiler-ordered (sequential) issue — no delayed-STS software
//!   pipelining;
//! * naive row-major block rasterization — poor wave-level L2 reuse, so
//!   the kernel goes DRAM-bound at large N (where Figure 10's 3x gap
//!   comes from).

use crate::GemmBaseline;
use egemm::{emulated_gemm_tk, wave_reuse_ab_bytes, EmulationScheme, TilingConfig};
use egemm_matrix::{GemmShape, Matrix};
use egemm_tcsim::{
    kernel_time, BlockResources, DepRef, DeviceSpec, KernelDesc, KernelTiming, LoopBody, Op,
    ScheduleMode,
};

/// The Markidis truncate-split baseline.
#[derive(Debug, Clone)]
pub struct Markidis {
    /// CUDA-level kernel tiling.
    pub config: TilingConfig,
}

impl Markidis {
    /// WMMA accumulation depth.
    pub const WMMA_TK: usize = 16;

    /// Construct for a device.
    pub fn new(spec: DeviceSpec) -> Markidis {
        let _ = spec;
        Markidis {
            config: TilingConfig {
                bm: 64,
                bn: 64,
                bk: 16,
                wm: 16,
                wn: 16,
                wk: 16,
            },
        }
    }
}

impl GemmBaseline for Markidis {
    fn name(&self) -> &'static str {
        "Markidis"
    }

    fn compute(&self, a: &Matrix<f32>, b: &Matrix<f32>) -> Matrix<f32> {
        emulated_gemm_tk(a, b, None, EmulationScheme::Markidis, Self::WMMA_TK)
    }

    fn time(&self, spec: &DeviceSpec, shape: GemmShape) -> KernelTiming {
        // Build the WMMA kernel body directly — the generic SASS builder
        // would grant optimizations the CUDA interface cannot express.
        // One iteration = one b_k = w_k = 16 chunk:
        //  * staging: (2·64 + 2·64)·16·2 B / 16 warps = 512 B -> 1 LDG +
        //    1 STS, then __syncthreads (the LockstepBarrier discipline);
        //  * wmma::load_matrix_sync: 3 terms x 2 fragments x 512 B via
        //    scalar 32-bit shared loads -> 24 LDS.32;
        //  * wmma::mma_sync: 3 calls of 4 HMMA.1688 each, serialized by
        //    the accumulator-fragment dependency.
        let cfg = &self.config;
        let terms = EmulationScheme::Markidis.tc_instructions();
        let mut body = LoopBody::new();
        let g = body.push(Op::Ldg128, vec![]);
        let s = body.push(Op::Sts128, vec![DepRef::Same(g)]);
        let mut prev = s;
        for _ in 0..terms * 8 {
            prev = body.push(Op::Lds32, vec![DepRef::Same(prev)]);
        }
        for _ in 0..terms * 4 {
            prev = body.push(Op::Hmma1688, vec![DepRef::Same(prev)]);
        }
        let resources = BlockResources {
            // Operand tiles only; C stays in the accumulator fragments.
            smem_bytes: 2 * (cfg.bm + cfg.bn) * cfg.bk * 2,
            // nvcc's allocation for WMMA fragments + staging + f32
            // accumulators: high enough to cap occupancy at one block/SM
            // (the register pressure §5.2 warns CUDA-level code about).
            regs_per_thread: 128,
            threads: cfg.threads_per_block(),
        };
        let blocks = cfg.grid_blocks(shape.m, shape.n);
        let ab = wave_reuse_ab_bytes(spec, cfg, shape, (2, 2), &resources, false);
        let desc = KernelDesc {
            name: format!("Markidis[{}]", cfg),
            body,
            iterations_per_warp: shape.k.div_ceil(cfg.wk) as u64,
            blocks,
            warps_per_block: cfg.warps_per_block(),
            resources,
            dram_bytes: ab + (shape.m * shape.n * 4) as u64,
            launches: 1,
            schedule: ScheduleMode::LockstepBarrier,
            prologue_cycles: spec.lat.ldg128_latency as u64,
            useful_flops: shape.flops(),
            fp32_clock: false,
        };
        kernel_time(spec, &desc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egemm_fp::max_abs_error;
    use egemm_matrix::gemm_f64_of_f32;

    #[test]
    fn one_bit_worse_than_egemm() {
        // Figure 7 / Table 1: the round-split carries one more effective
        // mantissa bit and EGEMM-TC keeps the lo.lo term, reducing max
        // error 2.33x on average over Markidis. The gap shows against the
        // f64 ground truth in the representation-dominated regime (small
        // k); at large k both schemes sit on the common f32-accumulation
        // noise floor (see EXPERIMENTS.md).
        let (m, k, n) = (256, 16, 256);
        let a = Matrix::<f32>::random_uniform(m, k, 11);
        let b = Matrix::<f32>::random_uniform(k, n, 12);
        let truth = gemm_f64_of_f32(&a, &b).to_f64_vec();
        let spec = DeviceSpec::t4();
        let e_mk = max_abs_error(&Markidis::new(spec).compute(&a, &b).to_f64_vec(), &truth);
        let e_eg = max_abs_error(
            &crate::EgemmTc::auto(spec).compute(&a, &b).to_f64_vec(),
            &truth,
        );
        assert!(e_eg < e_mk, "egemm {e_eg} vs markidis {e_mk}");
        let ratio = e_mk / e_eg;
        assert!(
            (1.5..=6.0).contains(&ratio),
            "error ratio {ratio} (paper: ~2.33x)"
        );
    }

    #[test]
    fn egemm_speedup_in_paper_band() {
        // §7.3 / Figure 10: EGEMM-TC is 3.0x faster on average.
        let spec = DeviceSpec::t4();
        let mut speedups = Vec::new();
        for n in [2048usize, 4096, 8192, 16384] {
            let shape = GemmShape::square(n);
            let mk = Markidis::new(spec).tflops(&spec, shape);
            let eg = crate::EgemmTc::auto(spec).tflops(&spec, shape);
            speedups.push(eg / mk);
        }
        let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
        assert!(
            (2.0..=4.5).contains(&avg),
            "avg speedup {avg} ({speedups:?})"
        );
    }

    #[test]
    fn throughput_near_paper_band() {
        // Figure 10: Markidis lands around 3.5-4.5 TFLOPS at large sizes
        // on T4 — 3x below EGEMM-TC despite identical Tensor Core work.
        let spec = DeviceSpec::t4();
        let t = Markidis::new(spec).tflops(&spec, GemmShape::square(8192));
        assert!((3.0..=6.0).contains(&t), "Markidis {t} TFLOPS");
    }

    #[test]
    fn wmma_grouping_changes_low_bits() {
        let a = Matrix::<f32>::random_uniform(32, 32, 13);
        let b = Matrix::<f32>::random_uniform(32, 32, 14);
        let tk8 = emulated_gemm_tk(&a, &b, None, EmulationScheme::Markidis, 8);
        let tk16 = emulated_gemm_tk(&a, &b, None, EmulationScheme::Markidis, 16);
        assert_ne!(tk8, tk16, "different accumulation grouping must show");
    }
}
