//! Linear-scan register allocation for the kernel IR.
//!
//! The op stream is effectively linear: the body loop's temporaries are
//! defined and killed within one iteration, and the only values live
//! across iterations (accumulators, the AVX lane mask) are defined in
//! the prologue and last used in the epilogue, so their linear ranges
//! already span the loop. That makes a classic linear scan exact here —
//! a range is `[first def, last use]` over the concatenated
//! prologue/body/ragged/epilogue order, and any assignment with no
//! overlapping ranges sharing a register is a valid allocation.
//!
//! The physical registers are the ones the ISA's encoding can name
//! ([`Isa::regs`]), and they cover the worst case of each ISA:
//! - AVX, ymm0-15: 8 accumulators + 1 lane mask + 2 B vectors + 1
//!   broadcast = 12 simultaneously live (an FMA accumulates in place:
//!   no temporary).
//! - AVX-512, zmm0-31: 16 accumulators over two row blocks + 2 B
//!   vectors + 1 broadcast = 19 (the lane mask lives in `k1`).
//!   Registers are handed out from the top, so the accumulators, which
//!   [`super::ir::lower`] defines first, take the upper bank (zmm16-31
//!   with two row blocks, zmm24-31 with one) and the temporaries the
//!   three registers below them.

use super::ir::{Isa, Op, Program, VReg};

/// Virtual-to-physical assignment: `map[vreg] = ymm/zmm index`.
pub(crate) struct Allocation {
    map: Vec<u8>,
}

impl Allocation {
    #[inline]
    pub(crate) fn phys(&self, v: VReg) -> u8 {
        self.map[v as usize]
    }
}

/// Registers an op writes / reads. An `Fma` both reads and writes its
/// accumulator, which the range arithmetic below handles naturally.
fn defs_uses(op: &Op) -> (Option<VReg>, [Option<VReg>; 3]) {
    match *op {
        Op::LoadAcc { dst, mask, .. } => (Some(dst), [mask, None, None]),
        Op::LoadMask { dst } => (Some(dst), [None; 3]),
        Op::LoadB { dst, .. } | Op::BroadcastA { dst, .. } => (Some(dst), [None; 3]),
        Op::Fma { acc, a, b } => (Some(acc), [Some(acc), Some(a), Some(b)]),
        Op::StoreAcc { src, mask, .. } => (None, [Some(src), mask, None]),
    }
}

/// Allocate `prog`'s virtual registers onto its ISA's [`Isa::regs`]
/// physical ones. `None` if the program ever needs more registers than
/// exist (cannot happen for specs produced by [`super::ir::lower`], but
/// the caller treats it as "fall back to the interpreted kernel" rather
/// than trusting that).
pub(crate) fn allocate(prog: &Program) -> Option<Allocation> {
    let n = prog.vregs as usize;
    let sections = [&prog.prologue, &prog.body, &prog.ragged, &prog.epilogue];
    let stream = || sections.iter().flat_map(|ops| ops.iter());

    let mut last = vec![0u32; n];
    for (pos, op) in stream().enumerate() {
        let (def, uses) = defs_uses(op);
        for v in def.into_iter().chain(uses.into_iter().flatten()) {
            last[v as usize] = pos as u32;
        }
    }

    let mut map = vec![u8::MAX; n];
    // `pop` takes from the end: the lowest register first under AVX,
    // the highest first under AVX-512.
    let regs = prog.spec.isa.regs() as u8;
    let mut free: Vec<u8> = match prog.spec.isa {
        Isa::Avx => (0..regs).rev().collect(),
        Isa::Avx512 => (0..regs).collect(),
    };
    // Ranges in expiry order: a counting sort by endpoint, ties in vreg
    // order. Scanning the live set at every op, or a comparison sort,
    // cost more than lowering and encoding together once two row blocks
    // kept 19 values live.
    let mut slot = vec![0usize; sections.iter().map(|ops| ops.len()).sum::<usize>() + 1];
    for &end in &last {
        slot[end as usize + 1] += 1;
    }
    for i in 1..slot.len() {
        slot[i] += slot[i - 1];
    }
    let mut by_end = vec![0 as VReg; n];
    for (v, &end) in last.iter().enumerate() {
        by_end[slot[end as usize]] = v as VReg;
        slot[end as usize] += 1;
    }
    let mut expired = by_end.iter().peekable();
    for (pos, op) in stream().enumerate() {
        let pos = pos as u32;
        // Expire ranges that ended strictly before this op (a vreg no
        // op names holds no register).
        while let Some(&v) = expired.next_if(|&&v| last[v as usize] < pos) {
            if map[v as usize] != u8::MAX {
                free.push(map[v as usize]);
            }
        }
        let (def, _) = defs_uses(op);
        if let Some(v) = def {
            if map[v as usize] == u8::MAX {
                map[v as usize] = free.pop()?;
            }
        }
    }
    Some(Allocation { map })
}

#[cfg(test)]
mod tests {
    use super::super::ir::{lower, KernelSpec};
    use super::*;

    impl Allocation {
        /// `vreg v` in physical register `v`, for encoder golden tests.
        pub(crate) fn identity() -> Allocation {
            Allocation {
                map: (0..Isa::Avx512.regs() as u8).collect(),
            }
        }
    }

    fn alloc_for(isa: Isa, nterms: usize, rows: usize, cols: usize) -> (Program, Allocation) {
        let spec = KernelSpec {
            isa,
            terms: vec![(false, false), (true, false), (false, true), (true, true)][..nterms]
                .to_vec(),
            tk: 8,
            kcb: 20,
            rows,
            cols,
        };
        let prog = lower(&spec);
        let a = allocate(&prog).expect("kernel IR must fit the ISA's registers");
        (prog, a)
    }

    /// No two simultaneously-live vregs may share a physical register —
    /// checked by replaying ranges against the final assignment.
    #[test]
    fn assignment_has_no_live_conflicts() {
        for (isa, rows, cols) in [
            (Isa::Avx, 4, 16),
            (Isa::Avx, 4, 11),
            (Isa::Avx512, 4, 23),
            (Isa::Avx512, 8, 32),
            (Isa::Avx512, 6, 23),
        ] {
            let (prog, a) = alloc_for(isa, 4, rows, cols);
            let stream: Vec<&Op> = prog
                .prologue
                .iter()
                .chain(&prog.body)
                .chain(&prog.ragged)
                .chain(&prog.epilogue)
                .collect();
            let n = prog.vregs as usize;
            let mut first = vec![u32::MAX; n];
            let mut last = vec![0u32; n];
            for (pos, op) in stream.iter().enumerate() {
                let (d, u) = defs_uses(op);
                for v in d.iter().chain(u.iter().flatten()) {
                    let v = *v as usize;
                    first[v] = first[v].min(pos as u32);
                    last[v] = pos as u32;
                }
            }
            for i in 0..n {
                for j in (i + 1)..n {
                    if a.phys(i as VReg) == a.phys(j as VReg) {
                        let disjoint = last[i] < first[j] || last[j] < first[i];
                        assert!(
                            disjoint,
                            "vregs {i} and {j} share a register while both live ({isa:?})"
                        );
                    }
                }
            }
        }
    }

    /// Accumulators keep one register across the whole program.
    #[test]
    fn accumulators_fit_with_temps() {
        let (prog, a) = alloc_for(Isa::Avx, 4, 4, 13);
        // vregs 0..8 are the accumulators (allocated first in lower()),
        // all distinct.
        let mut seen = std::collections::HashSet::new();
        for v in 0..8u16 {
            assert!(seen.insert(a.phys(v)), "accumulators must not collide");
        }
        assert!(prog.vregs > 8);
    }

    /// Two row blocks under AVX-512: sixteen distinct accumulators in
    /// zmm16-31, and no temporary ever in one of their registers.
    #[test]
    fn two_block_accumulators_take_the_upper_bank() {
        let (prog, a) = alloc_for(Isa::Avx512, 4, 8, 32);
        let accs: std::collections::HashSet<u8> = (0..16u16).map(|v| a.phys(v)).collect();
        assert_eq!(accs.len(), 16, "accumulators must not collide");
        assert!(accs.iter().all(|&r| r >= 16), "accumulators {accs:?}");
        for v in 16..prog.vregs {
            assert!(
                !accs.contains(&a.phys(v)),
                "temporary {v} in an accumulator"
            );
        }
    }

    /// VEX cannot name ymm16-31: an AVX program stays in ymm0-15.
    #[test]
    fn avx_programs_stay_in_the_low_bank() {
        for cols in [16, 11, 1] {
            let (prog, a) = alloc_for(Isa::Avx, 4, 4, cols);
            assert!((0..prog.vregs).all(|v| a.phys(v) < 16), "cols {cols}");
        }
    }
}
