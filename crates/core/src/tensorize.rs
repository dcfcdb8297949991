//! Tensor-Core-centric tensorization (§4): the explicit hierarchical
//! execution of the emulated GEMM on the simulated device.
//!
//! The matrices are recursively divided — block tiles `(b_m, b_k)`,
//! `(b_k, b_n)` to GPU blocks; warp tiles `(w_m, w_k)`, `(w_k, w_n)` to
//! warps; TC tiles `(16, 8, 8)` to Tensor Core instructions — with the
//! §4 warp-collaboration pattern: all warps of a block collaboratively
//! stage the block tiles from global to shared memory (2-D thread layout),
//! then each warp computes its warp tile (32x1 layout) from shared memory
//! through fragments.
//!
//! [`TensorizedGemm::execute`] runs this structure *functionally* and
//! returns, alongside the bit-exact result, an [`ExecutionTrace`] of every
//! data movement: global→shared bytes, shared→fragment bytes (hit/miss
//! accounted through [`egemm_tcsim::frag::FragCache`]), and HMMA counts.
//! Its two purposes:
//!
//! * prove the tiled execution equals the flattened
//!   [`crate::emulation::emulated_gemm`] bit-for-bit (the tiling must not
//!   change numerics);
//! * measure the Table 2 effect of intra-warp FRAG caching in vivo.
//!
//! It is a test-scale executor — clarity over speed; the fast path is
//! [`crate::emulation::emulated_gemm`].

use crate::config::TilingConfig;
use crate::emulation::EmulationScheme;
use crate::split_matrix::SplitMatrix;
use egemm_fp::Half;
use egemm_matrix::Matrix;
use egemm_tcsim::frag::{FragCache, FragStats};
use egemm_tcsim::{tensor_core_mma, MmaShape};

/// Plane identifiers for fragment-cache keys.
const PLANE_A_HI: u32 = 0;
const PLANE_A_LO: u32 = 1;
const PLANE_B_HI: u32 = 2;
const PLANE_B_LO: u32 = 3;

/// Data-movement counters of one tensorized execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutionTrace {
    /// Bytes staged global -> shared (the §6.1 Eq. 2 traffic).
    pub gmem_bytes: u64,
    /// Bytes moved shared -> fragment for the A/B operand tiles.
    pub operand_smem_bytes: u64,
    /// Bytes moved shared/global -> fragment and back for C tiles.
    pub c_traffic_bytes: u64,
    /// Tensor Core instructions issued.
    pub hmma_count: u64,
    /// Fragment-cache statistics for the operand tiles.
    pub frag_stats: FragStats,
}

/// The hierarchical executor.
#[derive(Debug, Clone, Copy)]
pub struct TensorizedGemm {
    /// Tiling hyper-parameters.
    pub config: TilingConfig,
    /// Intra-warp FRAG caching (§4) on/off — the Table 2 ablation.
    pub frag_caching: bool,
}

impl TensorizedGemm {
    /// Execute `D = A·B + C` through the full block/warp/TC hierarchy.
    pub fn execute(
        &self,
        a: &SplitMatrix,
        b: &SplitMatrix,
        c: Option<&Matrix<f32>>,
        scheme: EmulationScheme,
    ) -> (Matrix<f32>, ExecutionTrace) {
        self.config.validate().expect("invalid tiling");
        assert_eq!(a.cols(), b.rows(), "inner dimensions disagree");
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let cfg = self.config;
        let tc = TilingConfig::TC;
        let terms = scheme.terms();
        let mut out = Matrix::<f32>::zeros(m, n);
        let mut trace = ExecutionTrace::default();
        // Register budget of one warp: 256 regs x 32 lanes x 4 B.
        let warp_frag_capacity = 256 * 32 * 4;

        let blocks_m = m.div_ceil(cfg.bm);
        let blocks_n = n.div_ceil(cfg.bn);
        let k_chunks = k.div_ceil(cfg.bk);

        for bi in 0..blocks_m {
            for bj in 0..blocks_n {
                // Per-warp accumulators: the C block tile, zero-padded.
                // With FRAG caching this is loaded once and pinned; without,
                // it shuttles to/from shared memory every TC k-step.
                let mut c_block = match c {
                    Some(c0) => c0.block(bi * cfg.bm, bj * cfg.bn, cfg.bm, cfg.bn),
                    None => Matrix::<f32>::zeros(cfg.bm, cfg.bn),
                };
                if c.is_some() {
                    trace.gmem_bytes += (cfg.bm * cfg.bn * 4) as u64;
                }
                if self.frag_caching {
                    // One C load into FRAG for the whole k loop.
                    trace.c_traffic_bytes += (cfg.bm * cfg.bn * 4) as u64;
                }
                let mut warp_caches: Vec<FragCache> = (0..cfg.warps_per_block())
                    .map(|_| FragCache::new(warp_frag_capacity))
                    .collect();

                for kc in 0..k_chunks {
                    let k0 = kc * cfg.bk;
                    // Warp collaboration, data-loading phase: all warps
                    // stage A-lo/hi and B-lo/hi block tiles to shared
                    // memory (Figure 5). Eq. 2 traffic: 4(b_m + b_n)b_k.
                    trace.gmem_bytes += (4 * (cfg.bm + cfg.bn) * cfg.bk) as u64;
                    let a_hi = a.hi.block(bi * cfg.bm, k0, cfg.bm, cfg.bk);
                    let a_lo = a.lo.block(bi * cfg.bm, k0, cfg.bm, cfg.bk);
                    let b_hi = b.hi.block(k0, bj * cfg.bn, cfg.bk, cfg.bn);
                    let b_lo = b.lo.block(k0, bj * cfg.bn, cfg.bk, cfg.bn);

                    // Computation phase: each warp owns a (w_m, w_n) tile.
                    for wi in 0..cfg.bm / cfg.wm {
                        for wj in 0..cfg.bn / cfg.wn {
                            let warp_id = wi * (cfg.bn / cfg.wn) + wj;
                            let cache = &mut warp_caches[warp_id];
                            for ws in 0..cfg.bk / cfg.wk {
                                for tkk in 0..cfg.wk / tc.k {
                                    let kt = ws * cfg.wk + tkk * tc.k;
                                    let kt_global = (k0 + kt) as u32;
                                    self.k_step(
                                        cache,
                                        &mut trace,
                                        &mut c_block,
                                        (&a_hi, &a_lo, &b_hi, &b_lo),
                                        terms,
                                        (wi, wj),
                                        kt,
                                        kt_global,
                                    );
                                    // A/B tiles of this k-step are dead
                                    // once it finishes: release registers.
                                    self.evict_operands(cache, (wi, wj), kt_global);
                                }
                            }
                        }
                    }
                }
                for cache in &warp_caches {
                    trace.frag_stats.smem_to_frag_bytes += cache.stats.smem_to_frag_bytes;
                    trace.frag_stats.hits += cache.stats.hits;
                    trace.frag_stats.misses += cache.stats.misses;
                }
                if self.frag_caching {
                    // One C store from FRAG at the end of the k loop.
                    trace.c_traffic_bytes += (cfg.bm * cfg.bn * 4) as u64;
                }
                trace.gmem_bytes += (cfg.bm * cfg.bn * 4) as u64; // D writeback
                out.set_block(bi * cfg.bm, bj * cfg.bn, &c_block);
            }
        }
        (out, trace)
    }

    /// One TC k-step of one warp: all (t_m, t_n) tiles of the warp tile,
    /// all emulation terms.
    #[allow(clippy::too_many_arguments)]
    fn k_step(
        &self,
        cache: &mut FragCache,
        trace: &mut ExecutionTrace,
        c_block: &mut Matrix<f32>,
        planes: (&Matrix<Half>, &Matrix<Half>, &Matrix<Half>, &Matrix<Half>),
        terms: &[(bool, bool)],
        (wi, wj): (usize, usize),
        kt: usize,
        kt_global: u32,
    ) {
        let cfg = self.config;
        let tc = TilingConfig::TC;
        let (a_hi, a_lo, b_hi, b_lo) = planes;
        for ti in 0..cfg.wm / tc.m {
            for tj in 0..cfg.wn / tc.n {
                let r0 = wi * cfg.wm + ti * tc.m;
                let c0 = wj * cfg.wn + tj * tc.n;
                // C tile traffic without FRAG caching: fetched from and
                // spilled back to shared memory around every k-step
                // (Eq. 1's 4·w_m·w_n·w_k/t_k per warp).
                if !self.frag_caching {
                    trace.c_traffic_bytes += (2 * 4 * tc.m * tc.n) as u64;
                }
                let c_tile = c_block.block(r0, c0, tc.m, tc.n);
                let mut acc: Vec<f32> = c_tile.into_vec();
                for &(a_is_lo, b_is_lo) in terms {
                    let (a_plane, a_key) = if a_is_lo {
                        (a_lo, PLANE_A_LO)
                    } else {
                        (a_hi, PLANE_A_HI)
                    };
                    let (b_plane, b_key) = if b_is_lo {
                        (b_lo, PLANE_B_LO)
                    } else {
                        (b_hi, PLANE_B_HI)
                    };
                    // Operand fragment loads, FRAG-cache mediated. Tile
                    // identity: (plane, row-tile | k-tile). A tiles are
                    // shared across the tj loop; B tiles across ti.
                    let a_bytes = tc.m * tc.k * 2;
                    let b_bytes = tc.k * tc.n * 2;
                    let a_tile_key = (a_key, (wi * cfg.wm / tc.m + ti) as u32, kt_global);
                    let b_tile_key = (b_key, (wj * cfg.wn / tc.n + tj) as u32, kt_global);
                    if !cache.access(a_tile_key, a_bytes, self.frag_caching) {
                        trace.operand_smem_bytes += a_bytes as u64;
                    }
                    if !cache.access(b_tile_key, b_bytes, self.frag_caching) {
                        trace.operand_smem_bytes += b_bytes as u64;
                    }
                    let a_tile = a_plane.block(wi * cfg.wm + ti * tc.m, kt, tc.m, tc.k);
                    let b_tile = b_plane.block(kt, wj * cfg.wn + tj * tc.n, tc.k, tc.n);
                    acc = tensor_core_mma(
                        a_tile.as_slice(),
                        b_tile.as_slice(),
                        &acc,
                        MmaShape {
                            m: tc.m,
                            n: tc.n,
                            k: tc.k,
                        },
                    );
                    trace.hmma_count += 1;
                }
                c_block.set_block(r0, c0, &Matrix::from_vec(tc.m, tc.n, acc));
            }
        }
    }

    fn evict_operands(&self, cache: &mut FragCache, (wi, wj): (usize, usize), kt_global: u32) {
        let cfg = self.config;
        let tc = TilingConfig::TC;
        for ti in 0..cfg.wm / tc.m {
            for plane in [PLANE_A_HI, PLANE_A_LO] {
                cache.evict((plane, (wi * cfg.wm / tc.m + ti) as u32, kt_global));
            }
        }
        for tj in 0..cfg.wn / tc.n {
            for plane in [PLANE_B_HI, PLANE_B_LO] {
                cache.evict((plane, (wj * cfg.wn / tc.n + tj) as u32, kt_global));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emulation::emulated_gemm;
    use egemm_fp::SplitScheme;

    fn small_config() -> TilingConfig {
        TilingConfig {
            bm: 32,
            bn: 32,
            bk: 16,
            wm: 16,
            wn: 16,
            wk: 8,
        }
    }

    /// Raw operands drawn from `seed` and their round splits, which the
    /// tiled simulator reads.
    fn split_pair(
        m: usize,
        k: usize,
        n: usize,
        seed: u64,
    ) -> (Matrix<f32>, Matrix<f32>, SplitMatrix, SplitMatrix) {
        let a = Matrix::<f32>::random_uniform(m, k, seed);
        let b = Matrix::<f32>::random_uniform(k, n, seed + 1);
        let sa = SplitMatrix::split(&a, SplitScheme::Round);
        let sb = SplitMatrix::split(&b, SplitScheme::Round);
        (a, b, sa, sb)
    }

    #[test]
    fn tiled_matches_flat_executor_bitwise() {
        let (a, b, sa, sb) = split_pair(64, 32, 64, 1);
        let exec = TensorizedGemm {
            config: small_config(),
            frag_caching: true,
        };
        let (tiled, _) = exec.execute(&sa, &sb, None, EmulationScheme::EgemmTc);
        let flat = emulated_gemm(&a, &b, None, EmulationScheme::EgemmTc);
        for (x, y) in tiled.as_slice().iter().zip(flat.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn frag_caching_does_not_change_numerics() {
        let (_, _, sa, sb) = split_pair(64, 48, 32, 2);
        let on = TensorizedGemm {
            config: small_config(),
            frag_caching: true,
        };
        let off = TensorizedGemm {
            config: small_config(),
            frag_caching: false,
        };
        let (d_on, _) = on.execute(&sa, &sb, None, EmulationScheme::EgemmTc);
        let (d_off, _) = off.execute(&sa, &sb, None, EmulationScheme::EgemmTc);
        assert_eq!(d_on, d_off);
    }

    #[test]
    fn frag_caching_halves_operand_traffic() {
        let (_, _, sa, sb) = split_pair(64, 64, 64, 3);
        let on = TensorizedGemm {
            config: small_config(),
            frag_caching: true,
        };
        let off = TensorizedGemm {
            config: small_config(),
            frag_caching: false,
        };
        let (_, t_on) = on.execute(&sa, &sb, None, EmulationScheme::EgemmTc);
        let (_, t_off) = off.execute(&sa, &sb, None, EmulationScheme::EgemmTc);
        // Without caching, A tiles reload for every (term, tj) use and B
        // for every (term, ti); with caching each loads once per k-step.
        assert!(
            t_off.operand_smem_bytes >= 2 * t_on.operand_smem_bytes,
            "without {} vs with {}",
            t_off.operand_smem_bytes,
            t_on.operand_smem_bytes
        );
        // And C stops shuttling entirely.
        assert!(t_off.c_traffic_bytes > t_on.c_traffic_bytes * 4);
        assert_eq!(t_on.hmma_count, t_off.hmma_count, "same compute either way");
    }

    #[test]
    fn hmma_count_matches_closed_form() {
        let (_, _, sa, sb) = split_pair(64, 32, 64, 4);
        let cfg = small_config();
        let exec = TensorizedGemm {
            config: cfg,
            frag_caching: true,
        };
        let (_, tr) = exec.execute(&sa, &sb, None, EmulationScheme::EgemmTc);
        // HMMAs = (m/tm)(n/tn)(k/tk) * 4 terms.
        let expect = (64 / 16) * (64 / 8) * (32 / 8) * 4;
        assert_eq!(tr.hmma_count, expect as u64);
    }

    #[test]
    fn gmem_traffic_matches_eq2() {
        let (_, _, sa, sb) = split_pair(64, 64, 64, 5);
        let cfg = small_config();
        let exec = TensorizedGemm {
            config: cfg,
            frag_caching: true,
        };
        let (_, tr) = exec.execute(&sa, &sb, None, EmulationScheme::EgemmTc);
        // Per block per k-chunk: 4(bm+bn)bk; blocks = 4, chunks = 4;
        // plus D writeback 4 blocks * bm*bn*4 bytes.
        let expect = 4 * 4 * (4 * (32 + 32) * 16) + 4 * (32 * 32 * 4);
        assert_eq!(tr.gmem_bytes, expect as u64);
    }

    #[test]
    fn ragged_shapes_match_flat_values() {
        // Non-multiples exercise the zero-padded edge tiles; compare by
        // value (padding may flip a -0 to +0).
        let (a, b, sa, sb) = split_pair(50, 37, 29, 6);
        let exec = TensorizedGemm {
            config: small_config(),
            frag_caching: true,
        };
        let (tiled, _) = exec.execute(&sa, &sb, None, EmulationScheme::EgemmTc);
        let flat = emulated_gemm(&a, &b, None, EmulationScheme::EgemmTc);
        assert_eq!(tiled.rows(), 50);
        assert_eq!(tiled.cols(), 29);
        for (x, y) in tiled.as_slice().iter().zip(flat.as_slice()) {
            assert!((x - y).abs() <= 1e-6, "{x} vs {y}");
        }
    }

    #[test]
    fn with_c_accumulation() {
        let (a, b, sa, sb) = split_pair(32, 16, 32, 7);
        let c = Matrix::<f32>::random_uniform(32, 32, 99);
        let exec = TensorizedGemm {
            config: small_config(),
            frag_caching: true,
        };
        let (tiled, _) = exec.execute(&sa, &sb, Some(&c), EmulationScheme::EgemmTc);
        let flat = emulated_gemm(&a, &b, Some(&c), EmulationScheme::EgemmTc);
        for (x, y) in tiled.as_slice().iter().zip(flat.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn markidis_scheme_through_tiles() {
        let a = Matrix::<f32>::random_uniform(32, 32, 8);
        let b = Matrix::<f32>::random_uniform(32, 32, 9);
        let sa = SplitMatrix::split(&a, SplitScheme::Truncate);
        let sb = SplitMatrix::split(&b, SplitScheme::Truncate);
        let exec = TensorizedGemm {
            config: small_config(),
            frag_caching: true,
        };
        let (tiled, _) = exec.execute(&sa, &sb, None, EmulationScheme::Markidis);
        let flat = emulated_gemm(&a, &b, None, EmulationScheme::Markidis);
        for (x, y) in tiled.as_slice().iter().zip(flat.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
