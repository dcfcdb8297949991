//! Property-based tests of the timing substrate: the instruction
//! scheduler, occupancy model, kernel builder and analytic model must
//! behave monotonically and consistently over randomized inputs.

use egemm::{build_kernel, AnalyticModel, EmulationScheme, KernelOpts, TilingConfig};
use egemm_matrix::GemmShape;
use egemm_tcsim::sched::steady_cycles_per_iter;
use egemm_tcsim::{
    kernel_time, simulate_loop, simulate_loop_traced, DepRef, DeviceSpec, LoopBody, Op,
    ScheduleMode,
};
use proptest::prelude::*;

/// Random but structurally valid loop bodies: a staging pair, a few loads,
/// a few HMMAs depending on the last load.
fn arb_body() -> impl Strategy<Value = LoopBody> {
    (1usize..6, 1usize..24, 0usize..3).prop_map(|(n_lds, n_hmma, n_ldg)| {
        let mut b = LoopBody::new();
        let mut ldg_ids = Vec::new();
        for _ in 0..n_ldg {
            ldg_ids.push(b.push(Op::Ldg128, vec![]));
        }
        let mut last = None;
        for _ in 0..n_lds {
            last = Some(b.push(Op::Lds128, vec![]));
        }
        let deps = last.map(|l| vec![DepRef::Same(l)]).unwrap_or_default();
        for _ in 0..n_hmma {
            b.push(Op::Hmma1688, deps.clone());
        }
        for &g in &ldg_ids {
            b.push(Op::Sts128, vec![DepRef::Same(g)]);
        }
        b
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Interleaved issue never loses to sequential issue.
    #[test]
    fn interleaved_never_slower(body in arb_body(), warps in 1usize..5, iters in 1u64..12) {
        let spec = DeviceSpec::t4();
        let s = simulate_loop(&spec, &body, warps, iters, ScheduleMode::Sequential);
        let i = simulate_loop(&spec, &body, warps, iters, ScheduleMode::Interleaved);
        prop_assert!(i.cycles <= s.cycles, "interleaved {} > sequential {}", i.cycles, s.cycles);
        prop_assert_eq!(i.issued, s.issued);
    }

    /// More iterations never take fewer cycles; issue counts are exact.
    #[test]
    fn cycles_monotone_in_iterations(body in arb_body(), warps in 1usize..4) {
        let spec = DeviceSpec::t4();
        let c4 = simulate_loop(&spec, &body, warps, 4, ScheduleMode::Interleaved);
        let c8 = simulate_loop(&spec, &body, warps, 8, ScheduleMode::Interleaved);
        prop_assert!(c8.cycles >= c4.cycles);
        prop_assert_eq!(c8.issued, 2 * c4.issued);
    }

    /// Pipe-busy accounting is exact: sum of issue intervals of issued
    /// instructions, independent of schedule.
    #[test]
    fn pipe_busy_is_schedule_invariant(body in arb_body(), warps in 1usize..4) {
        let spec = DeviceSpec::t4();
        let s = simulate_loop(&spec, &body, warps, 6, ScheduleMode::Sequential);
        let i = simulate_loop(&spec, &body, warps, 6, ScheduleMode::Interleaved);
        prop_assert_eq!(s.pipe_busy, i.pipe_busy);
        // And the busy time never exceeds elapsed time per pipe.
        for p in egemm_tcsim::isa::Pipe::ALL {
            prop_assert!(s.pipe_busy[p.index()] <= s.cycles);
        }
    }

    /// Traces are complete and temporally consistent.
    #[test]
    fn traces_consistent(body in arb_body(), warps in 1usize..4, iters in 1u64..8) {
        let spec = DeviceSpec::t4();
        let (r, tr) = simulate_loop_traced(&spec, &body, warps, iters, ScheduleMode::Interleaved);
        prop_assert_eq!(tr.len() as u64, r.issued);
        prop_assert_eq!(r.issued, warps as u64 * iters * body.instrs.len() as u64);
        // Per warp, issues are strictly ordered (in-order issue).
        for w in 0..warps {
            let mut last = 0u64;
            let mut seen = false;
            for e in tr.iter().filter(|e| e.warp == w) {
                if seen {
                    prop_assert!(e.issue > last, "warp {w} issued out of order");
                }
                last = e.issue;
                seen = true;
                prop_assert!(e.complete > e.issue);
            }
        }
    }

    /// The memoized steady-state cost equals a direct recomputation, on
    /// the first call (a miss) and the second (a hit): differencing 32
    /// and 64 iterations, or one isolated iteration under the barrier.
    /// Every warp count and mode runs on the same body, so a key that
    /// dropped either would return another entry's value.
    #[test]
    fn steady_memo_matches_direct_simulation(body in arb_body()) {
        let spec = DeviceSpec::t4();
        for mode in [
            ScheduleMode::Sequential,
            ScheduleMode::Interleaved,
            ScheduleMode::LockstepBarrier,
        ] {
            for warps in 1usize..5 {
                let direct = if mode == ScheduleMode::LockstepBarrier {
                    simulate_loop(&spec, &body, warps, 1, ScheduleMode::Sequential).cycles as f64
                } else {
                    let c32 = simulate_loop(&spec, &body, warps, 32, mode).cycles;
                    let c64 = simulate_loop(&spec, &body, warps, 64, mode).cycles;
                    (c64 - c32) as f64 / 32.0
                };
                for _ in 0..2 {
                    let memo = steady_cycles_per_iter(&spec, &body, warps, mode);
                    prop_assert_eq!(memo.to_bits(), direct.to_bits(), "{:?} warps={}", mode, warps);
                }
            }
        }
    }

    /// Kernel time is monotone in every problem dimension.
    #[test]
    fn kernel_time_monotone_in_shape(
        m in 1usize..16,
        n in 1usize..16,
        k in 1usize..16,
    ) {
        let spec = DeviceSpec::t4();
        let base = GemmShape::new(m * 256, n * 256, k * 256);
        let bigger_k = GemmShape::new(m * 256, n * 256, (k + 1) * 256);
        let time = |s: GemmShape| {
            let d = build_kernel(&spec, &TilingConfig::T4_PAPER, s, EmulationScheme::EgemmTc, KernelOpts::default());
            kernel_time(&spec, &d).time_s
        };
        prop_assert!(time(bigger_k) >= time(base) * 0.999);
    }

    /// Every feasible analytic candidate beats the memory-time constraint
    /// and fits every budget, and the solver's pick (when one exists)
    /// dominates the feasible set's objective.
    #[test]
    fn analytic_model_scaling(reg_div in 1usize..3, smem_div in 1usize..2) {
        let spec = DeviceSpec::t4();
        let mut model = AnalyticModel::for_device(&spec);
        model.budget.register_file_bytes /= reg_div;
        model.budget.shared_mem_bytes /= smem_div;
        let cands = model.feasible_candidates();
        for c in &cands {
            prop_assert!(c.t_mem1 + c.t_mem2 <= c.t_comp + 1e-9);
            prop_assert!(c.register_bytes <= model.budget.register_file_bytes);
            prop_assert!(c.smem_bytes <= model.budget.shared_mem_bytes);
        }
        if let Some(best) = egemm::solve_tiling(&model) {
            let best_obj = best.objective;
            for c in cands.iter().filter(|c| c.config.bm == c.config.bn) {
                prop_assert!(c.objective <= best_obj + 1e-9);
            }
        }
    }
}
