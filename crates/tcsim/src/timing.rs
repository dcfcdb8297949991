//! Whole-kernel execution-time model.
//!
//! Combines the instruction-level pipeline simulation ([`crate::sched`]),
//! the occupancy model ([`crate::occupancy`]), and a DRAM roofline into an
//! end-to-end time for one GEMM kernel launch (or several, for baselines
//! that need multiple launches):
//!
//! ```text
//! time = launches * launch_overhead
//!      + max( waves * (prologue + iters * steady_cycles) / clock ,
//!             dram_bytes / dram_bandwidth )
//! ```
//!
//! Every kernel in the evaluation — EGEMM-TC and all five baselines — is
//! described as a [`KernelDesc`] by its kernel builder and costed through
//! this one function, so the comparisons differ only in the instruction
//! streams, resource footprints and traffic the builders emit.

use crate::isa::LoopBody;
use crate::occupancy::{blocks_per_sm, BlockResources};
use crate::sched::{steady_cycles_per_iter, ScheduleMode};
use crate::spec::DeviceSpec;

/// What limited the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Pipeline (compute/issue) bound.
    Compute,
    /// DRAM-bandwidth bound.
    Memory,
    /// Dominated by kernel-launch overhead (tiny problems).
    Launch,
}

/// Description of one kernel execution.
#[derive(Debug, Clone)]
pub struct KernelDesc {
    /// Kernel name (reports).
    pub name: String,
    /// Steady-state inner-loop body of one warp.
    pub body: LoopBody,
    /// Inner-loop iterations each warp executes per block.
    pub iterations_per_warp: u64,
    /// Thread blocks in the grid.
    pub blocks: u64,
    /// Warps per block.
    pub warps_per_block: usize,
    /// Per-block resource footprint (drives occupancy).
    pub resources: BlockResources,
    /// Total DRAM traffic over the whole kernel, bytes.
    pub dram_bytes: u64,
    /// Kernel launches (cuBLAS-TC-Emulation needs 4; everything else 1).
    pub launches: u32,
    /// Issue discipline (the Figure 11 ablation toggles this).
    pub schedule: ScheduleMode,
    /// Cold-start cycles per block before the steady loop (Figure 6's
    /// initial global->shared staging).
    pub prologue_cycles: u64,
    /// Useful FLOPs for the Eq. 9 TFLOPS metric (2·M·N·K — emulation
    /// overhead is *not* counted as useful work).
    pub useful_flops: u64,
    /// `true` for FP32-CUDA-core kernels, which run in the (lower)
    /// FP32 sustained-clock domain — see [`DeviceSpec`].
    pub fp32_clock: bool,
}

/// Costed kernel execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelTiming {
    /// Wall time, seconds.
    pub time_s: f64,
    /// Eq. 9 throughput.
    pub tflops: f64,
    /// Limiting resource.
    pub bound: Bound,
    /// Steady-state cycles per scheduler-partition iteration.
    pub cycles_per_iter: f64,
    /// Occupancy: concurrent blocks per SM.
    pub blocks_per_sm: usize,
    /// Grid waves executed.
    pub waves: u64,
    /// Pipeline time component, seconds.
    pub compute_time_s: f64,
    /// DRAM time component, seconds.
    pub dram_time_s: f64,
}

/// Cost a kernel on a device.
///
/// # Panics
/// If the block's resource footprint does not fit on an SM at all (a real
/// launch would fail) or the body is empty with nonzero iterations.
pub fn kernel_time(spec: &DeviceSpec, desc: &KernelDesc) -> KernelTiming {
    let bpsm = blocks_per_sm(spec, &desc.resources);
    assert!(
        bpsm > 0,
        "kernel {} does not fit on {}: {:?}",
        desc.name,
        spec.name,
        desc.resources
    );
    // Steady cycles per partition iteration at a given blocks/SM level:
    // `warps_per_partition` warps advance together, so one "partition
    // iteration" covers that many warp iterations.
    let steady = |occupancy: usize| -> f64 {
        if desc.body.instrs.is_empty() {
            return 0.0;
        }
        let warps_per_sm = desc.warps_per_block * occupancy;
        let warps_per_partition = warps_per_sm.div_ceil(spec.partitions_per_sm).max(1);
        steady_cycles_per_iter(spec, &desc.body, warps_per_partition, desc.schedule)
    };
    // Cycles for one co-resident block set.
    let set_cycles =
        |cpi: f64| -> f64 { desc.prologue_cycles as f64 + desc.iterations_per_warp as f64 * cpi };
    let cycles_per_iter = steady(bpsm);
    // Full waves run at the occupancy limit; the trailing partial wave
    // spreads its blocks thinner (fewer blocks per SM -> fewer resident
    // warps but proportionally less work per SM).
    let sets_capacity = (spec.sm_count * bpsm) as u64;
    let full_waves = desc.blocks / sets_capacity.max(1);
    let rem_blocks = desc.blocks % sets_capacity.max(1);
    let waves = full_waves + u64::from(rem_blocks > 0);
    let mut total_cycles = full_waves as f64 * set_cycles(cycles_per_iter);
    if rem_blocks > 0 {
        let rem_occupancy = ((rem_blocks as usize).div_ceil(spec.sm_count)).clamp(1, bpsm);
        total_cycles += set_cycles(steady(rem_occupancy));
    }
    let clock_ghz = if desc.fp32_clock {
        spec.sustained_clock_fp32_ghz
    } else {
        spec.sustained_clock_ghz
    };
    let clock_hz = clock_ghz * 1e9;
    let compute_time_s = total_cycles / clock_hz;
    let dram_time_s = desc.dram_bytes as f64 / (spec.dram_bandwidth_gbps * 1e9);
    let launch_time_s = desc.launches as f64 * spec.kernel_launch_us * 1e-6;
    let body_time = compute_time_s.max(dram_time_s);
    let time_s = launch_time_s + body_time;
    let bound = if launch_time_s > body_time {
        Bound::Launch
    } else if compute_time_s >= dram_time_s {
        Bound::Compute
    } else {
        Bound::Memory
    };
    KernelTiming {
        time_s,
        tflops: desc.useful_flops as f64 / time_s / 1e12,
        bound,
        cycles_per_iter,
        blocks_per_sm: bpsm,
        waves,
        compute_time_s,
        dram_time_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{DepRef, LoopBody, Op};

    fn t4() -> DeviceSpec {
        DeviceSpec::t4()
    }

    /// A TC-heavy body resembling one EGEMM warp iteration.
    fn tc_body(hmmas: usize) -> LoopBody {
        let mut b = LoopBody::new();
        let l = b.push(Op::Lds128, vec![]);
        for _ in 0..hmmas {
            b.push(Op::Hmma1688, vec![DepRef::Same(l)]);
        }
        b
    }

    fn desc(blocks: u64, iters: u64, dram: u64) -> KernelDesc {
        KernelDesc {
            name: "test".into(),
            body: tc_body(64),
            iterations_per_warp: iters,
            blocks,
            warps_per_block: 8,
            resources: BlockResources {
                smem_bytes: 36 * 1024,
                regs_per_thread: 232,
                threads: 256,
            },
            dram_bytes: dram,
            launches: 1,
            schedule: ScheduleMode::Interleaved,
            prologue_cycles: 1000,
            useful_flops: 0,
            fp32_clock: false,
        }
    }

    #[test]
    fn fp32_clock_domain_is_slower() {
        let spec = t4();
        let d = desc(256, 64, 1 << 20);
        let mut df = d.clone();
        df.fp32_clock = true;
        let t_tc = kernel_time(&spec, &d);
        let t_fp = kernel_time(&spec, &df);
        let expect = spec.sustained_clock_ghz / spec.sustained_clock_fp32_ghz;
        let got = t_fp.compute_time_s / t_tc.compute_time_s;
        assert!((got - expect).abs() < 1e-9, "clock ratio {got} vs {expect}");
    }

    #[test]
    fn compute_bound_large_tc_kernel_near_peak() {
        // 4096 blocks x 1024 iterations of 64 HMMAs x 8 warps — the
        // 8192^3 EGEMM working set. Raw TC flops retired:
        let spec = t4();
        let mut d = desc(4096, 1024, 32 * 1024 * 1024);
        let tc_flops = 4096u64 * 1024 * 8 * 64 * 2048; // blocks*iters*warps*hmma*flops
        d.useful_flops = tc_flops;
        let t = kernel_time(&spec, &d);
        assert_eq!(t.bound, Bound::Compute);
        // Must land within 60-100% of the sustained TC peak.
        let peak = spec.tc_peak_tflops();
        assert!(
            t.tflops > 0.6 * peak && t.tflops <= peak * 1.001,
            "got {} of peak {}",
            t.tflops,
            peak
        );
    }

    #[test]
    fn memory_bound_when_traffic_dominates() {
        let spec = t4();
        // Tiny compute, huge traffic.
        let mut d = desc(16, 4, 64 * 1024 * 1024 * 1024);
        d.useful_flops = 1;
        let t = kernel_time(&spec, &d);
        assert_eq!(t.bound, Bound::Memory);
        // 64 GiB at 320 GB/s = 0.2147 s.
        let expect = (64u64 * 1024 * 1024 * 1024) as f64 / 320e9;
        assert!(
            (t.time_s - expect).abs() / expect < 0.05,
            "time {}",
            t.time_s
        );
    }

    #[test]
    fn launch_bound_for_tiny_kernels() {
        let spec = t4();
        let mut d = desc(1, 1, 128);
        d.useful_flops = 1;
        let t = kernel_time(&spec, &d);
        assert_eq!(t.bound, Bound::Launch);
        assert!(t.time_s >= spec.kernel_launch_us * 1e-6);
    }

    #[test]
    fn extra_launches_cost_linearly() {
        let spec = t4();
        let d1 = desc(256, 64, 1 << 20);
        let mut d4 = d1.clone();
        d4.launches = 4;
        let t1 = kernel_time(&spec, &d1);
        let t4_ = kernel_time(&spec, &d4);
        let extra = t4_.time_s - t1.time_s;
        assert!((extra - 3.0 * spec.kernel_launch_us * 1e-6).abs() < 1e-9);
    }

    #[test]
    fn sequential_schedule_is_slower() {
        let spec = t4();
        let d = desc(1024, 256, 1 << 20);
        let mut ds = d.clone();
        ds.schedule = ScheduleMode::Sequential;
        let ti = kernel_time(&spec, &d);
        let ts = kernel_time(&spec, &ds);
        assert!(
            ts.time_s > ti.time_s,
            "sequential {} <= interleaved {}",
            ts.time_s,
            ti.time_s
        );
    }

    #[test]
    fn waves_quantize() {
        let spec = t4();
        // Capacity = 40 SMs * 1 block = 40 concurrent blocks.
        let t40 = kernel_time(&spec, &desc(40, 64, 1)).compute_time_s;
        let t41 = kernel_time(&spec, &desc(41, 64, 1)).compute_time_s;
        let t80 = kernel_time(&spec, &desc(80, 64, 1)).compute_time_s;
        assert!(
            (t41 - t80).abs() < 1e-12,
            "41 and 80 blocks both take 2 waves"
        );
        assert!((t80 / t40 - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_block_panics() {
        let spec = t4();
        let mut d = desc(1, 1, 1);
        d.resources.smem_bytes = 128 * 1024;
        kernel_time(&spec, &d);
    }
}
