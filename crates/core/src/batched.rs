//! Batched emulated GEMM — an extension beyond the paper.
//!
//! Many GEMM-based scientific workloads (the paper's own kNN among them,
//! when queries arrive in waves) issue many small products rather than
//! one large one. A batched entry point amortizes the launch overhead and
//! fills the device with blocks from independent problems: the grid of
//! one launch covers the whole batch, so occupancy at small per-problem
//! sizes stops being the bottleneck the §7.3 small-size discussion
//! describes.

use crate::engine;
use crate::gemm::Egemm;
use crate::kernel::build_kernel;
use crate::telemetry::{probe, GemmReport};
use egemm_matrix::{GemmShape, Matrix};
use egemm_tcsim::{kernel_time, KernelTiming};

/// Result of a batched GEMM.
#[derive(Debug, Clone)]
pub struct BatchedOutput {
    /// Per-problem products, in input order.
    pub d: Vec<Matrix<f32>>,
    /// Telemetry for the whole batch (prepare + compute phases) —
    /// `Some` only while tracing is on.
    pub report: Option<GemmReport>,
}

impl Egemm {
    /// Compute `D_i = A_i · B_i` for every pair in the batch with one
    /// simulated launch. All problems must share one shape.
    ///
    /// # Panics
    /// On an empty batch, length mismatch, or heterogeneous shapes.
    pub fn gemm_batched(&self, a: &[Matrix<f32>], b: &[Matrix<f32>]) -> BatchedOutput {
        assert!(!a.is_empty(), "empty batch");
        assert_eq!(a.len(), b.len(), "batch length mismatch");
        let shape = GemmShape::new(a[0].rows(), b[0].cols(), a[0].cols());
        for (ai, bi) in a.iter().zip(b) {
            assert_eq!(
                (ai.rows(), ai.cols(), bi.rows(), bi.cols()),
                (shape.m, shape.k, shape.k, shape.n),
                "heterogeneous batch shapes"
            );
        }
        // Prepare phase: route every B through the runtime's
        // content-addressed cache, so a batch sharing one B (the common
        // serving pattern) prepares it exactly once — the remaining
        // items hit the fingerprint and reuse the resident panels. B
        // packs straight from raw f32 and A splits per tile inside the
        // workers.
        let mwin = Egemm::metrics_begin();
        let window = self.trace_begin();
        let prepared: Vec<_> = b.iter().map(|bi| self.prepare(bi)).collect();
        // Compute phase: one plan per problem, all run as one tile grid
        // on the runtime's pool.
        let plans: Vec<_> = a
            .iter()
            .zip(&prepared)
            .map(|(ai, pb)| self.plan(ai, pb))
            .collect();
        let d = engine::execute_all(self.runtime(), &plans);
        let report = self.trace_end(
            window,
            format!(
                "gemm_batched {}x{}x{} x{}",
                shape.m,
                shape.n,
                shape.k,
                a.len()
            ),
        );
        Egemm::metrics_end(mwin, shape, a.len() as u64);
        // Sampled numerical-health check on one batch member (the raw
        // A/B pairs are in hand here, unlike the prepared paths).
        if probe::probe_rate() > 0 {
            let i = probe::pick(a.len());
            probe::maybe_probe(self.scheme, &a[i], &b[i], None, &d[i]);
        }
        BatchedOutput { d, report }
    }

    /// Timing of a batched launch: one kernel whose grid is the union of
    /// the per-problem grids, with traffic summed across the batch.
    pub fn time_batched(&self, shape: GemmShape, batch: usize) -> KernelTiming {
        assert!(batch > 0, "empty batch");
        let mut desc = build_kernel(&self.spec, &self.config, shape, self.scheme, self.opts);
        desc.blocks *= batch as u64;
        desc.dram_bytes *= batch as u64;
        desc.useful_flops *= batch as u64;
        desc.name = format!("{} x{batch}", desc.name);
        kernel_time(&self.spec, &desc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TilingConfig;
    use egemm_tcsim::DeviceSpec;

    fn engine() -> Egemm {
        Egemm::new(DeviceSpec::t4(), TilingConfig::T4_PAPER)
    }

    #[test]
    fn batched_matches_singles_bitwise() {
        let eng = engine();
        let a: Vec<Matrix<f32>> = (0..4)
            .map(|i| Matrix::random_uniform(32, 24, 10 + i))
            .collect();
        let b: Vec<Matrix<f32>> = (0..4)
            .map(|i| Matrix::random_uniform(24, 16, 20 + i))
            .collect();
        let out = eng.gemm_batched(&a, &b);
        assert_eq!(out.d.len(), 4);
        for i in 0..4 {
            let single = eng.gemm(&a[i], &b[i]).d;
            assert_eq!(out.d[i], single, "batch element {i}");
        }
    }

    #[test]
    fn batching_beats_serial_launches_at_small_sizes() {
        // 16 problems of 256^3: serially launched, each underfills the
        // device and pays a launch; batched, the grid fills it once.
        let eng = engine();
        let shape = GemmShape::square(256);
        let single = eng.time(shape);
        let batched = eng.time_batched(shape, 16);
        assert!(
            batched.time_s < 16.0 * single.time_s,
            "batched {} vs 16x serial {}",
            batched.time_s,
            16.0 * single.time_s
        );
        // And per-problem throughput improves.
        assert!(batched.tflops > single.tflops);
    }

    #[test]
    fn shared_b_splits_and_packs_once() {
        use crate::engine::{EngineRuntime, RuntimeConfig};
        // A private runtime so the counters aren't shared with other
        // tests running in this process.
        let rt = EngineRuntime::new(RuntimeConfig::default());
        let eng = engine().with_runtime(rt.clone());
        let b0 = Matrix::<f32>::random_uniform(24, 16, 99);
        let a: Vec<Matrix<f32>> = (0..5)
            .map(|i| Matrix::random_uniform(32, 24, 40 + i))
            .collect();
        let b: Vec<Matrix<f32>> = (0..5).map(|_| b0.clone()).collect();
        let out = eng.gemm_batched(&a, &b);
        let s = rt.cache_stats();
        // One shared B: packed once straight from the raw f32 data, hit
        // 4 times. A operands are split per tile inside the workers.
        assert_eq!(s.packs, 1, "shared B must pack exactly once: {s:?}");
        assert_eq!(s.hits, 4, "4 of 5 B lookups must hit: {s:?}");
        // And the cached path is bit-identical to uncached singles.
        let cold = engine().with_runtime(EngineRuntime::new(RuntimeConfig {
            cache_bytes: 0,
            ..Default::default()
        }));
        for (i, ai) in a.iter().enumerate() {
            let single = cold.gemm(ai, &b0).d;
            assert_eq!(out.d[i], single, "batch element {i}");
        }
    }

    #[test]
    #[should_panic(expected = "heterogeneous batch shapes")]
    fn mixed_shapes_rejected() {
        let eng = engine();
        let a = vec![Matrix::<f32>::zeros(8, 8), Matrix::<f32>::zeros(16, 8)];
        let b = vec![Matrix::<f32>::zeros(8, 8), Matrix::<f32>::zeros(8, 8)];
        eng.gemm_batched(&a, &b);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_rejected() {
        engine().gemm_batched(&[], &[]);
    }
}
