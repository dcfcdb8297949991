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
//! Sixteen physical registers cover the worst case with room to spare:
//! 8 accumulators + 1 lane mask + 2 B vectors + 1 broadcast = 12
//! simultaneously live (an FMA accumulates in place: no temporary).

use super::ir::{Op, Program, VReg};

/// Physical vector registers available (ymm0-15 / zmm0-15; the encoder
/// stays out of the EVEX upper bank to keep one register model for
/// both ISAs).
pub(crate) const PHYS_REGS: usize = 16;

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

/// Allocate `prog`'s virtual registers onto [`PHYS_REGS`] physical
/// ones. `None` if the program ever needs more registers than exist
/// (cannot happen for specs produced by [`super::ir::lower`], but the
/// caller treats it as "fall back to the interpreted kernel" rather
/// than trusting that).
pub(crate) fn allocate(prog: &Program) -> Option<Allocation> {
    let n = prog.vregs as usize;
    let stream: Vec<&Op> = prog
        .prologue
        .iter()
        .chain(&prog.body)
        .chain(&prog.ragged)
        .chain(&prog.epilogue)
        .collect();

    const UNSEEN: u32 = u32::MAX;
    let mut first = vec![UNSEEN; n];
    let mut last = vec![0u32; n];
    for (pos, op) in stream.iter().enumerate() {
        let pos = pos as u32;
        let (def, uses) = defs_uses(op);
        for v in def.iter().chain(uses.iter().flatten()) {
            let v = *v as usize;
            if first[v] == UNSEEN {
                first[v] = pos;
            }
            last[v] = pos;
        }
    }

    let mut map = vec![u8::MAX; n];
    let mut free: Vec<u8> = (0..PHYS_REGS as u8).rev().collect();
    // Active ranges ordered by endpoint would be asymptotically nicer;
    // with <= 12 live values a scan per op is already negligible next
    // to encoding.
    let mut active: Vec<(u32, VReg)> = Vec::new(); // (last use, vreg)
    for (pos, op) in stream.iter().enumerate() {
        let pos = pos as u32;
        // Expire ranges that ended strictly before this op.
        active.retain(|&(end, v)| {
            if end < pos {
                free.push(map[v as usize]);
                false
            } else {
                true
            }
        });
        let (def, _) = defs_uses(op);
        if let Some(v) = def {
            if map[v as usize] == u8::MAX {
                map[v as usize] = free.pop()?;
                active.push((last[v as usize], v));
            }
        }
    }
    Some(Allocation { map })
}

#[cfg(test)]
mod tests {
    use super::super::ir::{lower, Isa, KernelSpec};
    use super::*;

    impl Allocation {
        /// `vreg v` in physical register `v`, for encoder golden tests.
        pub(crate) fn identity() -> Allocation {
            Allocation {
                map: (0..PHYS_REGS as u8).collect(),
            }
        }
    }

    fn alloc_for(isa: Isa, nterms: usize, cols: usize) -> (Program, Allocation) {
        let spec = KernelSpec {
            isa,
            terms: vec![(false, false), (true, false), (false, true), (true, true)][..nterms]
                .to_vec(),
            tk: 8,
            kcb: 20,
            rows: 4,
            cols,
        };
        let prog = lower(&spec);
        let a = allocate(&prog).expect("kernel IR must fit 16 registers");
        (prog, a)
    }

    /// No two simultaneously-live vregs may share a physical register —
    /// checked by replaying ranges against the final assignment.
    #[test]
    fn assignment_has_no_live_conflicts() {
        for (isa, cols) in [(Isa::Avx, 16), (Isa::Avx, 11), (Isa::Avx512, 23)] {
            let (prog, a) = alloc_for(isa, 4, cols);
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
        let (prog, a) = alloc_for(Isa::Avx, 4, 13);
        // vregs 0..8 are the accumulators (allocated first in lower()),
        // all distinct.
        let mut seen = std::collections::HashSet::new();
        for v in 0..8u16 {
            assert!(seen.insert(a.phys(v)), "accumulators must not collide");
        }
        assert!(prog.vregs > 8);
    }
}
