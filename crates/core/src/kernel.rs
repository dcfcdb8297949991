//! Kernel builder: lower a tiling configuration + emulation scheme to a
//! SASS-like instruction stream and resource footprint for the timing
//! layer (§5).
//!
//! The steady-state inner loop of one warp (one `w_k` step of its warp
//! tile) is emitted with the Figure 6 structure:
//!
//! 1. `LDS` the split operand tiles shared→FRAG (skipped for resident
//!    tiles under FRAG caching);
//! 2. `LDG` the *next* block k-chunk global→registers (prefetch — no
//!    dependency on this iteration's compute);
//! 3. `HMMA` the emulation terms over the warp tile;
//! 4. without FRAG caching only: shuttle the C accumulator tile to/from
//!    shared memory (the Table 2 "w/o" column);
//! 5. `STS` the prefetched data registers→shared, **delayed to the end of
//!    the iteration** to avoid overwriting the live chunk (§5.1).
//!
//! With `latency_hiding` the stream executes under the interleaved
//! discipline (stalls only on true dependencies); without it, fully
//! serialized per warp — the Figure 11 ablation.

use crate::config::TilingConfig;
use crate::emulation::EmulationScheme;
use egemm_matrix::GemmShape;
use egemm_tcsim::{BlockResources, DepRef, DeviceSpec, KernelDesc, LoopBody, Op, ScheduleMode};

/// Optimization switches of the EGEMM-TC kernel (all on by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelOpts {
    /// Intra-warp FRAG caching (§4).
    pub frag_caching: bool,
    /// Register-enhanced instruction scheduling (§5.1).
    pub latency_hiding: bool,
    /// Kernel launches this GEMM needs (1 for the fused EGEMM-TC kernel).
    pub launches: u32,
    /// Blocking of the host-side execution engine that computes the
    /// functional result (no effect on the simulated timing).
    pub engine: crate::engine::EngineConfig,
}

impl Default for KernelOpts {
    fn default() -> Self {
        KernelOpts {
            frag_caching: true,
            latency_hiding: true,
            launches: 1,
            engine: crate::engine::EngineConfig::default(),
        }
    }
}

/// Bytes one warp-wide 128-bit memory instruction moves (32 lanes x 16 B).
pub const BYTES_PER_128B_INSTR: usize = 32 * 16;

/// DRAM bytes for the A/B operand strips under wave-level L2 reuse.
///
/// A block re-reads its A row-strip and B column-strip from global
/// memory, but blocks co-resident in one wave share strips through the
/// L2: with the swizzled (super-tiled) block rasterization production
/// kernels use, a wave of `W` blocks arranged `r x c` touches only
/// `r + c` distinct strips instead of `2W`. Naive row-major rasterization
/// (`swizzled = false`, as in simple open-source kernels) shares only the
/// single A strip of the current block row — the mechanism that leaves
/// Markidis/SDK-style kernels DRAM-bound at large N.
pub fn wave_reuse_ab_bytes(
    spec: &DeviceSpec,
    config: &TilingConfig,
    shape: GemmShape,
    (a_planes, b_planes): (usize, usize),
    resources: &BlockResources,
    swizzled: bool,
) -> u64 {
    let gm = shape.m.div_ceil(config.bm) as u64;
    let gn = shape.n.div_ceil(config.bn) as u64;
    let blocks = gm * gn;
    let bpsm = egemm_tcsim::blocks_per_sm(spec, resources).max(1) as u64;
    let wave = (spec.sm_count as u64 * bpsm).min(blocks).max(1);
    // Wave footprint r x c in block coordinates.
    let (r, c) = if swizzled {
        let r = (wave as f64).sqrt().ceil() as u64;
        let r = r.min(gm).max(1);
        let c = wave.div_ceil(r).min(gn).max(1);
        (r, c)
    } else {
        (1, wave.min(gn).max(1))
    };
    let strip_bytes_a = (a_planes * config.bm * 2) as u64 * shape.k as u64;
    let strip_bytes_b = (b_planes * config.bn * 2) as u64 * shape.k as u64;
    let per_wave = r * strip_bytes_a + c * strip_bytes_b;
    let waves = blocks.div_ceil(r * c);
    per_wave * waves
}

/// Distinct A/B planes a scheme touches: `(a_planes, b_planes)`.
pub fn plane_counts(scheme: EmulationScheme) -> (usize, usize) {
    let terms = scheme.terms();
    let a = usize::from(terms.iter().any(|t| t.0)) + usize::from(terms.iter().any(|t| !t.0));
    let b = usize::from(terms.iter().any(|t| t.1)) + usize::from(terms.iter().any(|t| !t.1));
    (a, b)
}

/// Build the timed kernel description for `D = A·B (+C)` of `shape` with
/// the given tiling, scheme and optimization switches.
///
/// The result's fields are public so baseline builders can adjust traffic
/// or launch structure before costing.
pub fn build_kernel(
    spec: &DeviceSpec,
    config: &TilingConfig,
    shape: GemmShape,
    scheme: EmulationScheme,
    opts: KernelOpts,
) -> KernelDesc {
    config.validate().expect("invalid tiling");
    let tc = TilingConfig::TC;
    let (a_planes, b_planes) = plane_counts(scheme);
    let terms = scheme.terms().len();
    let warps = config.warps_per_block();

    // ---- instruction counts per warp per w_k step ----
    let n_hmma = config.hmmas_per_warp_step_per_term() * terms;
    // Operand shared->FRAG bytes, each resident tile read once...
    let operand_bytes = (a_planes * config.wm * config.wk + b_planes * config.wk * config.wn) * 2;
    // ...or once per use without caching (each plane feeds terms/planes
    // products).
    let reuse = if opts.frag_caching {
        1
    } else {
        (terms / a_planes).max(1)
    };
    let n_lds_operand = (operand_bytes * reuse).div_ceil(BYTES_PER_128B_INSTR);
    // C shuttling without FRAG caching: a round trip per TC k-slice.
    let c_bytes_per_step = 4 * config.wm * config.wn * (config.wk / tc.k);
    let (n_lds_c, n_sts_c) = if opts.frag_caching {
        (0, 0)
    } else {
        (
            c_bytes_per_step.div_ceil(BYTES_PER_128B_INSTR),
            c_bytes_per_step.div_ceil(BYTES_PER_128B_INSTR),
        )
    };
    // Global->shared staging, amortized: one block k-chunk costs
    // (a_planes·b_m + b_planes·b_n)·b_k·2 bytes across warps*(b_k/w_k)
    // warp-steps.
    let stage_bytes_chunk = (a_planes * config.bm + b_planes * config.bn) * config.bk * 2;
    let steps_per_chunk = warps * (config.bk / config.wk);
    let stage_bytes_step = stage_bytes_chunk.div_ceil(steps_per_chunk);
    let n_ldg = stage_bytes_step.div_ceil(BYTES_PER_128B_INSTR).max(1);
    let n_sts = n_ldg;

    // ---- loop body ----
    let mut body = LoopBody::new();
    if opts.latency_hiding {
        // Figure 6 ordering: software-pipelined. LDS consumes what the
        // *previous* iteration's delayed STS staged; LDG prefetches the
        // next chunk with no dependency on this iteration's compute.
        let total = n_lds_operand + n_ldg + n_hmma + n_lds_c + n_sts_c + n_sts;
        let sts_idx_probe: Vec<usize> = (0..n_sts).map(|i| total - n_sts + i).collect();
        let mut lds_ids = Vec::with_capacity(n_lds_operand);
        for _ in 0..n_lds_operand {
            let deps = sts_idx_probe.iter().map(|&s| DepRef::Prev(s)).collect();
            lds_ids.push(body.push(Op::Lds128, deps));
        }
        let mut ldg_ids = Vec::with_capacity(n_ldg);
        for _ in 0..n_ldg {
            ldg_ids.push(body.push(Op::Ldg128, vec![]));
        }
        let hmma_deps: Vec<DepRef> = lds_ids
            .last()
            .map(|&l| vec![DepRef::Same(l)])
            .unwrap_or_default();
        for _ in 0..n_hmma {
            body.push(Op::Hmma1688, hmma_deps.clone());
        }
        let mut last_c_lds = None;
        for _ in 0..n_lds_c {
            last_c_lds = Some(body.push(Op::Lds128, vec![]));
        }
        for _ in 0..n_sts_c {
            let deps = last_c_lds
                .map(|l| vec![DepRef::Same(l)])
                .unwrap_or_default();
            body.push(Op::Sts128, deps);
        }
        for &g in &ldg_ids {
            // Delayed STS: depends on its LDG data having arrived.
            body.push(Op::Sts128, vec![DepRef::Same(g)]);
        }
        debug_assert_eq!(body.instrs.len(), total);
    } else {
        // Naive (unscheduled) ordering — the Figure 11 "w/o latency
        // hiding" ablation: every stage of the *same* iteration feeds the
        // next (LDG -> STS -> LDS -> HMMA), so the global-load latency
        // sits on the critical path of each iteration. Hardware warp
        // interleaving still applies; only the software pipelining is
        // gone.
        let mut last_ldg = None;
        for _ in 0..n_ldg {
            last_ldg = Some(body.push(Op::Ldg128, vec![]));
        }
        let mut last_sts = None;
        for _ in 0..n_sts {
            let deps = last_ldg.map(|g| vec![DepRef::Same(g)]).unwrap_or_default();
            last_sts = Some(body.push(Op::Sts128, deps));
        }
        let mut last_lds = None;
        for _ in 0..n_lds_operand {
            let deps = last_sts.map(|s| vec![DepRef::Same(s)]).unwrap_or_default();
            last_lds = Some(body.push(Op::Lds128, deps));
        }
        let hmma_deps: Vec<DepRef> = last_lds.map(|l| vec![DepRef::Same(l)]).unwrap_or_default();
        for _ in 0..n_hmma {
            body.push(Op::Hmma1688, hmma_deps.clone());
        }
        let mut last_c_lds = None;
        for _ in 0..n_lds_c {
            last_c_lds = Some(body.push(Op::Lds128, vec![]));
        }
        for _ in 0..n_sts_c {
            let deps = last_c_lds
                .map(|l| vec![DepRef::Same(l)])
                .unwrap_or_default();
            body.push(Op::Sts128, deps);
        }
    }

    // ---- resources ----
    let plane_scale = (a_planes + b_planes) as f64 / 4.0;
    let smem_operands = (config.smem_bytes() as f64 * plane_scale) as usize;
    let smem_bytes = if opts.frag_caching {
        smem_operands
    } else {
        // The C accumulator lives in shared memory instead of FRAG.
        smem_operands + 4 * config.bm * config.bn
    };
    let regs_per_thread = if opts.frag_caching {
        config.regs_per_thread()
    } else {
        // No pinned C fragment: much lighter register footprint.
        (config.regs_per_thread() - 4 * config.wm * config.wn / 128).max(64)
    };
    let resources = BlockResources {
        smem_bytes,
        regs_per_thread,
        threads: config.threads_per_block(),
    };

    // ---- traffic and schedule ----
    let blocks = config.grid_blocks(shape.m, shape.n);
    let ab_bytes = wave_reuse_ab_bytes(
        spec,
        config,
        shape,
        (a_planes, b_planes),
        &resources,
        /* swizzled = */ true,
    );
    let c_bytes = (shape.m * shape.n * 4) as u64; // D writeback
    let dram_bytes = ab_bytes + c_bytes;
    let iterations_per_warp = shape.k.div_ceil(config.wk) as u64;
    // Cold start (Figure 6): first chunk staged with nothing to overlap.
    let prologue_cycles = spec.lat.ldg128_latency as u64
        + (stage_bytes_chunk / BYTES_PER_128B_INSTR) as u64 * spec.lat.sts128_issue as u64;

    KernelDesc {
        name: format!("{}[{}]", scheme.label(), config),
        body,
        iterations_per_warp,
        blocks,
        warps_per_block: warps,
        resources,
        dram_bytes,
        launches: opts.launches,
        // Both orderings run under the hardware's dependency-driven issue;
        // the ablation is in the instruction ordering above. (Sequential
        // issue models CUDA-interface kernels without SASS control and is
        // used by the Markidis baseline.)
        schedule: ScheduleMode::Interleaved,
        prologue_cycles,
        useful_flops: shape.flops(),
        fp32_clock: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egemm_tcsim::kernel_time;

    fn t4() -> DeviceSpec {
        DeviceSpec::t4()
    }

    fn paper_kernel(n: usize, opts: KernelOpts) -> KernelDesc {
        build_kernel(
            &t4(),
            &TilingConfig::T4_PAPER,
            GemmShape::square(n),
            EmulationScheme::EgemmTc,
            opts,
        )
    }

    #[test]
    fn plane_counting() {
        assert_eq!(plane_counts(EmulationScheme::EgemmTc), (2, 2));
        assert_eq!(plane_counts(EmulationScheme::Markidis), (2, 2));
        assert_eq!(plane_counts(EmulationScheme::MarkidisFourTerm), (2, 2));
        assert_eq!(plane_counts(EmulationScheme::TcHalf), (1, 1));
    }

    #[test]
    fn body_instruction_mix() {
        let d = paper_kernel(8192, KernelOpts::default());
        // 16 HMMAs per term x 4 terms.
        assert_eq!(d.body.count(Op::Hmma1688), 64);
        // Operand bytes: (2*64*8 + 2*8*32)*2 = 3072 B -> 6 LDS.128.
        assert_eq!(d.body.count(Op::Lds128), 6);
        assert!(d.body.count(Op::Ldg128) >= 1);
        assert_eq!(d.body.count(Op::Sts128), d.body.count(Op::Ldg128));
    }

    #[test]
    fn no_frag_caching_adds_c_shuttling() {
        let opts = KernelOpts {
            frag_caching: false,
            ..KernelOpts::default()
        };
        let d = paper_kernel(8192, opts);
        let with = paper_kernel(8192, KernelOpts::default());
        assert!(d.body.count(Op::Lds128) > with.body.count(Op::Lds128));
        assert!(d.body.count(Op::Sts128) > with.body.count(Op::Sts128));
        // And a heavier shared-memory footprint (C lives there).
        assert!(d.resources.smem_bytes > with.resources.smem_bytes);
    }

    #[test]
    fn grid_and_iterations() {
        let d = paper_kernel(8192, KernelOpts::default());
        assert_eq!(d.blocks, 64 * 64);
        assert_eq!(d.iterations_per_warp, 8192 / 8);
        assert_eq!(d.warps_per_block, 8);
    }

    #[test]
    fn dram_traffic_wave_reuse() {
        // 1024^3: 8x8 block grid, one 40-block wave capacity -> the whole
        // grid fits ~two waves; traffic must sit between the compulsory
        // minimum (every strip once) and the naive per-block re-read.
        let d = paper_kernel(1024, KernelOpts::default());
        let strip = (2 * 128 * 2) as u64 * 1024; // one split A or B strip
        let compulsory = 16 * strip + (1024 * 1024 * 4) as u64;
        let naive = 64 * 2 * strip + (1024 * 1024 * 4) as u64;
        assert!(
            d.dram_bytes >= compulsory,
            "{} < compulsory {compulsory}",
            d.dram_bytes
        );
        assert!(d.dram_bytes <= naive, "{} > naive {naive}", d.dram_bytes);
    }

    #[test]
    fn swizzled_rasterization_cuts_traffic() {
        use egemm_tcsim::BlockResources;
        let spec = t4();
        let cfg = TilingConfig::T4_PAPER;
        let shape = GemmShape::square(8192);
        let res = BlockResources {
            smem_bytes: 36 * 1024,
            regs_per_thread: 192,
            threads: 256,
        };
        let sw = wave_reuse_ab_bytes(&spec, &cfg, shape, (2, 2), &res, true);
        let naive = wave_reuse_ab_bytes(&spec, &cfg, shape, (2, 2), &res, false);
        assert!(sw * 2 < naive, "swizzled {sw} vs naive {naive}");
    }

    #[test]
    fn paper_kernel_times_near_12_tflops_at_8192() {
        // §A.3: "the performance of the emulation code ... around 12
        // TFLOPs" on T4 at 8192^3. Accept 10-14.
        let d = paper_kernel(8192, KernelOpts::default());
        let t = kernel_time(&t4(), &d);
        assert!(
            (10.0..=14.0).contains(&t.tflops),
            "EGEMM-TC at 8192^3 on T4: {} TFLOPS (bound {:?})",
            t.tflops,
            t.bound
        );
    }

    #[test]
    fn latency_hiding_gains_in_line_with_fig11() {
        // Figure 11: ~1.14x average speedup from instruction scheduling.
        let base = paper_kernel(8192, KernelOpts::default());
        let no_lh = KernelOpts {
            latency_hiding: false,
            ..KernelOpts::default()
        };
        let seq = paper_kernel(8192, no_lh);
        let t_on = kernel_time(&t4(), &base);
        let t_off = kernel_time(&t4(), &seq);
        let speedup = t_off.time_s / t_on.time_s;
        assert!(
            (1.02..=1.8).contains(&speedup),
            "latency hiding speedup {speedup}"
        );
    }

    #[test]
    fn half_scheme_kernel_is_faster_and_lighter() {
        let eg = paper_kernel(4096, KernelOpts::default());
        let half = build_kernel(
            &t4(),
            &TilingConfig::T4_PAPER,
            GemmShape::square(4096),
            EmulationScheme::TcHalf,
            KernelOpts::default(),
        );
        assert!(half.body.count(Op::Hmma1688) * 4 == eg.body.count(Op::Hmma1688));
        assert!(half.dram_bytes < eg.dram_bytes);
        let t_eg = kernel_time(&t4(), &eg);
        let t_half = kernel_time(&t4(), &half);
        assert!(t_half.time_s < t_eg.time_s);
    }
}
