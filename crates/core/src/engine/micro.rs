//! The register-tiled microkernel.
//!
//! One call advances an `MR x NR` accumulator tile through one k panel,
//! replaying the profiled Tensor-Core accumulation order exactly: the
//! panel is consumed in `tk`-sized chunks (the panel start is aligned to
//! the global chunk grid by the caller), each chunk issues the scheme's
//! terms in order, and each term accumulates its `tk` products
//! sequentially with a separate binary32 multiply and add. The 4 x 16
//! accumulator tile (eight ymm registers in the AVX instance) stays in
//! registers for the whole panel; C is loaded before each panel and
//! stored after it, so the value stream per output element is
//! bit-identical to the scalar oracle.
//! [`interpret`] walks a kernel call's tile through it one row block
//! and one strip at a time: a compiled kernel covers up to two row
//! blocks and two strips (8 x 32) per call, and the interpreter
//! replaces any of them.

use super::pack::{MR, NR};

/// Per-plane packed operand views for one row block / column strip.
#[derive(Clone, Copy)]
pub(crate) struct PlanePair<'a> {
    pub hi: &'a [f32],
    pub lo: &'a [f32],
}

impl<'a> PlanePair<'a> {
    #[inline]
    fn plane(&self, lo_part: bool) -> &'a [f32] {
        if lo_part {
            self.lo
        } else {
            self.hi
        }
    }
}

/// Advance one output tile through one k panel with the portable
/// kernel: for each of the `rows.div_ceil(MR)` row blocks of `a`, each
/// of the `cols.div_ceil(NR)` strips of `b` in turn is loaded from
/// `out`, run through [`microkernel`] and stored back. Only the
/// `rows x cols` valid lanes are read and written; padded lanes load
/// zeros and are never stored. Access goes through the raw pointer, so
/// concurrent workers read and write disjoint tiles of one output
/// buffer without manufacturing aliasing `&mut` slices. The worker runs
/// this for every tile no compiled kernel covers, and verify-on-compile
/// replays it as the oracle, so each compiled kernel is checked against
/// exactly the code that replaces it.
///
/// # Safety
/// `out` must be valid for reads and writes of `rows x cols` elements
/// at row stride `n`, with no other thread accessing them during the
/// call. `rows <= 2 * MR`; both planes of `a` must hold
/// `rows.div_ceil(MR)` packed slivers of `kcb x MR`, and both planes of
/// `b` `cols.div_ceil(NR)` packed slivers of `kcb x NR`.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn interpret(
    out: *mut f32,
    n: usize,
    rows: usize,
    cols: usize,
    a: PlanePair<'_>,
    b: PlanePair<'_>,
    kcb: usize,
    tk: usize,
    terms: &[(bool, bool)],
) {
    debug_assert!(rows <= 2 * MR);
    for blk in 0..rows.div_ceil(MR) {
        let rows_b = MR.min(rows - blk * MR);
        let a_b = PlanePair {
            hi: sliver(a.hi, blk, kcb * MR),
            lo: sliver(a.lo, blk, kcb * MR),
        };
        let block = out.add(blk * MR * n);
        for s in 0..cols.div_ceil(NR) {
            let cols_s = NR.min(cols - s * NR);
            let b_s = PlanePair {
                hi: sliver(b.hi, s, kcb * NR),
                lo: sliver(b.lo, s, kcb * NR),
            };
            let strip = block.add(s * NR);
            let mut acc = [[0.0f32; NR]; MR];
            for (r, lanes) in acc.iter_mut().enumerate().take(rows_b) {
                for (c, lane) in lanes.iter_mut().enumerate().take(cols_s) {
                    *lane = *strip.add(r * n + c);
                }
            }
            microkernel(&mut acc, a_b, b_s, kcb, tk, terms);
            for (r, lanes) in acc.iter().enumerate().take(rows_b) {
                for (c, &lane) in lanes.iter().enumerate().take(cols_s) {
                    *strip.add(r * n + c) = lane;
                }
            }
        }
    }
}

/// The `idx`-th packed sliver of `len` elements.
#[inline]
fn sliver(buf: &[f32], idx: usize, len: usize) -> &[f32] {
    &buf[idx * len..(idx + 1) * len]
}

/// Advance `acc` through one k panel of depth `kcb`.
///
/// `a` points at this row block's packed slivers (`kcb x MR`), `b` at
/// this column strip's (`kcb x NR`). The caller guarantees the panel
/// start sits on a `tk` chunk boundary of the global (per-slice) chunk
/// grid, so chunking relative to the panel reproduces the global
/// sequence.
///
/// Where the CPU has AVX, the AVX-compiled instance of the same source
/// runs; both perform the same binary32 multiply and add per lane in
/// the same order, so they are bit-identical.
#[inline]
fn microkernel(
    acc: &mut [[f32; NR]; MR],
    a: PlanePair<'_>,
    b: PlanePair<'_>,
    kcb: usize,
    tk: usize,
    terms: &[(bool, bool)],
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: AVX support just checked.
        unsafe { microkernel_avx(acc, a, b, kcb, tk, terms) };
        return;
    }
    microkernel_portable(acc, a, b, kcb, tk, terms)
}

/// [`microkernel_portable`] compiled with AVX enabled, so the compiler
/// vectorizes its 16-lane rows into 256-bit operations. The `avx`
/// feature has no FMA instruction, and rustc never contracts `acc + a *
/// b` into one, so every lane keeps the portable rounding sequence.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn microkernel_avx(
    acc: &mut [[f32; NR]; MR],
    a: PlanePair<'_>,
    b: PlanePair<'_>,
    kcb: usize,
    tk: usize,
    terms: &[(bool, bool)],
) {
    microkernel_portable(acc, a, b, kcb, tk, terms)
}

/// The interpreter's arithmetic, stated once: per `tk` chunk, the
/// scheme's terms in order, each accumulating its products with a
/// separate binary32 multiply and add.
#[inline(always)]
fn microkernel_portable(
    acc: &mut [[f32; NR]; MR],
    a: PlanePair<'_>,
    b: PlanePair<'_>,
    kcb: usize,
    tk: usize,
    terms: &[(bool, bool)],
) {
    // A local copy keeps the accumulators in registers for the whole
    // panel: a bounds-check panic could observe `*acc`, so updates to
    // it would be stored back after every term.
    let mut c = *acc;
    let mut kt = 0;
    while kt < kcb {
        let chunk = tk.min(kcb - kt);
        for &(a_lo, b_lo) in terms {
            let ap = &a.plane(a_lo)[kt * MR..(kt + chunk) * MR];
            let bp = &b.plane(b_lo)[kt * NR..(kt + chunk) * NR];
            // `chunks_exact` + array views hand LLVM constant extents, so
            // the accumulators vectorize with no bounds checks in the
            // innermost loops.
            for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
                let av: &[f32; MR] = av.try_into().unwrap();
                let bv: &[f32; NR] = bv.try_into().unwrap();
                for r in 0..MR {
                    let ar = av[r];
                    for j in 0..NR {
                        // One simulated HMMA lane-step: a separate
                        // binary32 multiply and add (rustc never
                        // contracts these into an FMA).
                        c[r][j] += ar * bv[j];
                    }
                }
            }
        }
        kt += chunk;
    }
    *acc = c;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acc_roundtrip_edges() {
        // A 2 x 19 tile at (1, 2) of a 4 x 24 buffer, and a 6 x 19 one
        // at (1, 2) of a 9 x 24 buffer, whose rows span both A slivers:
        // one full strip and a 3-lane ragged one, one full row block and
        // a 2-row ragged one. A zero-depth panel stores back exactly
        // what it loaded; a one-step panel adds 1 to the valid lanes of
        // block 0 and 2 to those of block 1. Every element outside the
        // tile stays untouched.
        let ones = [1.0f32; 2 * NR];
        let (a_hi, a_lo) = ([1.0f32, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0], [0.0; 2 * MR]);
        let b = PlanePair {
            hi: &ones,
            lo: &ones,
        };
        let (n, cols) = (24, 19);
        for (rows, buf_rows) in [(2usize, 4usize), (6, 9)] {
            let out: Vec<f32> = (0..buf_rows * n).map(|x| x as f32).collect();
            for kcb in [0, 1] {
                // Block `blk`'s one-step sliver is `a_hi[blk * MR..]`.
                let a = PlanePair {
                    hi: &a_hi[..rows.div_ceil(MR) * kcb * MR],
                    lo: &a_lo[..rows.div_ceil(MR) * kcb * MR],
                };
                let mut got = out.clone();
                let tile = got[n + 2..].as_mut_ptr();
                // SAFETY: rows 1..1 + rows and columns 2..21 lie inside
                // the buffer.
                unsafe { interpret(tile, n, rows, cols, a, b, kcb, 1, &[(false, false)]) };
                for (i, (&g, &o)) in got.iter().zip(&out).enumerate() {
                    let (r, c) = (i / n, i % n);
                    let inside = (1..1 + rows).contains(&r) && (2..2 + cols).contains(&c);
                    let step = if r <= MR { 1.0 } else { 2.0 };
                    let want = if inside { o + kcb as f32 * step } else { o };
                    assert_eq!(g, want, "element {i}, {rows} rows, kcb {kcb}");
                }
            }
        }
    }

    #[test]
    fn microkernel_matches_scalar_order() {
        // kcb = 5 with tk = 2 exercises a ragged trailing chunk, and the
        // terms read all four plane pairs.
        let (kcb, tk) = (5usize, 2usize);
        let terms: &[(bool, bool)] = &[(true, true), (false, false), (true, false), (false, true)];
        let a_hi: Vec<f32> = (0..kcb * MR).map(|x| 0.25 + x as f32).collect();
        let a_lo: Vec<f32> = a_hi.iter().map(|x| x * 0.001).collect();
        let b_hi: Vec<f32> = (0..kcb * NR).map(|x| 0.5 - x as f32 * 0.1).collect();
        let b_lo: Vec<f32> = b_hi.iter().map(|x| x * 0.003).collect();
        let a = PlanePair {
            hi: &a_hi,
            lo: &a_lo,
        };
        let b = PlanePair {
            hi: &b_hi,
            lo: &b_lo,
        };
        let init: [[f32; NR]; MR] =
            std::array::from_fn(|r| std::array::from_fn(|c| 1.0 + (r * NR + c) as f32 * 0.37));
        // Scalar replay of every lane.
        let mut want = init;
        for (r, row) in want.iter_mut().enumerate() {
            for (c, lane) in row.iter_mut().enumerate() {
                let mut kt = 0;
                while kt < kcb {
                    let chunk = tk.min(kcb - kt);
                    for &(al, bl) in terms {
                        let ap = if al { &a_lo } else { &a_hi };
                        let bp = if bl { &b_lo } else { &b_hi };
                        for kk in kt..kt + chunk {
                            *lane += ap[kk * MR + r] * bp[kk * NR + c];
                        }
                    }
                    kt += chunk;
                }
            }
        }
        // The baseline instance, and the dispatched one: the AVX
        // instance wherever the CPU has AVX.
        let (mut base, mut dispatched) = (init, init);
        microkernel_portable(&mut base, a, b, kcb, tk, terms);
        microkernel(&mut dispatched, a, b, kcb, tk, terms);
        for (name, got) in [("baseline", base), ("dispatched", dispatched)] {
            for r in 0..MR {
                for c in 0..NR {
                    assert_eq!(
                        got[r][c].to_bits(),
                        want[r][c].to_bits(),
                        "{name} instance, lane ({r}, {c})"
                    );
                }
            }
        }
    }
}
