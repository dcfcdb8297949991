//! Operand packing for the blocked execution engine.
//!
//! The microkernel consumes contiguous, zero-padded panels:
//!
//! * **A block** — for a row range of `mcb` output rows and a k panel of
//!   depth `kcb`, the plane is laid out as `ceil(mcb/MR)` row blocks of
//!   `kcb x MR` column-major slivers: element `(rb, kk, r)` holds
//!   `A[row(i0 + rb*MR + r), p0 + kk]`. Rows past `mcb` are zero.
//! * **B panel** — for a column range of `ncb` output columns, the plane
//!   is `ceil(ncb/NR)` strips of `kcb x NR` row-major slivers: element
//!   `(sb, kk, c)` holds `B[p0 + kk, j0 + sb*NR + c]`. Columns past
//!   `ncb` are zero.
//!
//! Zero padding is numerically inert: each output element's accumulator
//! only ever combines its own row/column lane, and padded lanes are never
//! stored back (see `micro::interpret`). The `row` indirection supports
//! the row-sampled entry point (`emulated_gemm_rows`) without a gather
//! copy of A.

use crate::telemetry::{self, Phase};
use egemm_fp::simd_split::LINE;
use egemm_fp::{split_planes_f32_strided, split_strips_f32, SplitKernel, SplitScheme};
use egemm_matrix::Matrix;
use std::ops::Range;

/// Microkernel output rows (register tile height).
pub(crate) const MR: usize = 4;
/// Microkernel output columns (register tile width). A 16-lane row is
/// two ymm vectors or one zmm vector, so 4 x 16 keeps eight independent
/// 8-lane accumulators live in the AVX kernels (the JIT's, and the
/// compiler's AVX instance of the portable kernel) — enough parallel
/// chains to cover FP latency on two issue ports — while leaving
/// headroom for the operand loads and broadcasts in 16 ymm registers.
/// AVX-512 kernels fuse two strips and two row blocks into an 8 x 32
/// tile of sixteen zmm accumulators, held in zmm16-31: twice the chains
/// the two FMA ports need, 16 FMAs per pair of B loads, and each B
/// sliver pair streamed once per 8 output rows.
pub(crate) const NR: usize = 16;

/// Fused split+pack of A: read raw f32 rows and emit both packed planes
/// directly in the A block layout above, with no split matrix
/// materialized in between.
/// Each real row is split straight into its column-major sliver lane
/// (stride `MR`); padded rows are zeroed in both planes. Bit-identity
/// with packing the split planes holds because the split is elementwise:
/// splitting element `(i, p)` then packing it lands the exact bits that
/// splitting the gathered row in place produces.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pack_a_fused(
    src: &[f32],
    k: usize,
    rows_idx: &[usize],
    p0: usize,
    kcb: usize,
    scheme: SplitScheme,
    kernel: SplitKernel,
    hi: &mut [f32],
    lo: &mut [f32],
) {
    let mcb = rows_idx.len();
    let row_blocks = mcb.div_ceil(MR);
    for rb in 0..row_blocks {
        let hb = &mut hi[rb * kcb * MR..(rb + 1) * kcb * MR];
        let lb = &mut lo[rb * kcb * MR..(rb + 1) * kcb * MR];
        for r in 0..MR {
            let i = rb * MR + r;
            if i < mcb {
                let arow = &src[rows_idx[i] * k + p0..rows_idx[i] * k + p0 + kcb];
                if kcb > 0 {
                    let end = (kcb - 1) * MR + r + 1;
                    split_planes_f32_strided(
                        kernel,
                        scheme,
                        arow,
                        &mut hb[r..end],
                        &mut lb[r..end],
                        MR,
                    );
                }
            } else {
                for kk in 0..kcb {
                    hb[kk * MR + r] = 0.0;
                    lb[kk * MR + r] = 0.0;
                }
            }
        }
    }
}

/// Fused split+pack of B: read raw f32 rows and emit both packed planes
/// directly in the B panel layout above, overwriting every element of
/// the `ceil(ncb/NR) * kcb * NR` it covers. Both planes must start on a
/// 64-byte boundary, as [`PackedB`]'s do, so that each strip row is one
/// cache line.
///
/// The panel goes in blocks of up to NR rows: one [`split_strips_f32`]
/// call splits a block's row segments straight into rows `[kk0, kk0 +
/// rows)` of every strip, with streaming stores (lanes past the ragged
/// last strip's width are +0.0, [`pack_b`]'s zeros). So B is read a
/// block of rows at a time, and no line of either plane is read before
/// it is written.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pack_b_fused(
    src: &[f32],
    n: usize,
    j0: usize,
    ncb: usize,
    p0: usize,
    kcb: usize,
    scheme: SplitScheme,
    kernel: SplitKernel,
    hi: &mut [f32],
    lo: &mut [f32],
) {
    const _: () = assert!(NR == LINE, "a strip row is one split line");
    let mut kk0 = 0;
    while kk0 < kcb {
        let rows = NR.min(kcb - kk0);
        split_strips_f32(
            kernel,
            scheme,
            &src[(p0 + kk0) * n + j0..],
            n,
            rows,
            ncb,
            &mut hi[kk0 * NR..],
            &mut lo[kk0 * NR..],
            kcb * NR,
        );
        kk0 += rows;
    }
}

/// The B rows one operand is prepared from: a `k x n` row-major view of
/// raw f32, split while it is packed. Rows `[lo, hi)` of a row-major
/// matrix are contiguous, so a view of them is a sub-slice and copies
/// nothing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BRows<'a> {
    pub(crate) k: usize,
    pub(crate) n: usize,
    data: &'a [f32],
}

impl<'a> BRows<'a> {
    /// Rows `rows` of the raw operand `src`.
    pub(crate) fn raw(src: &'a Matrix<f32>, rows: Range<usize>) -> BRows<'a> {
        let span = row_span(src.rows(), src.cols(), &rows);
        BRows {
            k: rows.len(),
            n: src.cols(),
            data: &src.as_slice()[span],
        }
    }

    /// Rows `[start, start + len)` of this view.
    fn sub(self, start: usize, len: usize) -> BRows<'a> {
        BRows {
            k: len,
            n: self.n,
            data: &self.data[start * self.n..(start + len) * self.n],
        }
    }
}

/// The element range of rows `rows` in a row-major `k x n` matrix.
fn row_span(k: usize, n: usize, rows: &Range<usize>) -> Range<usize> {
    assert!(
        rows.start <= rows.end && rows.end <= k,
        "B rows [{}, {}) out of bounds: B has {k} rows",
        rows.start,
        rows.end
    );
    rows.start * n..rows.end * n
}

/// One k panel of a B being prepared: its source rows and the two plane
/// ranges it fills, which no other panel touches.
pub(crate) struct Panel<'a> {
    rows: BRows<'a>,
    scheme: SplitScheme,
    hi: &'a mut [f32],
    lo: &'a mut [f32],
}

impl Panel<'_> {
    /// Pack the panel over all `n` columns with [`pack_b_fused`], which
    /// overwrites every element of both plane ranges.
    pub(crate) fn pack(self) {
        let Panel {
            rows: BRows { k: kcb, n, data },
            scheme,
            hi,
            lo,
        } = self;
        let t_pack = telemetry::span_start();
        pack_b_fused(data, n, 0, n, 0, kcb, scheme, SplitKernel::Auto, hi, lo);
        let bytes = 4 * (hi.len() + lo.len()) as u64;
        telemetry::span_end(Phase::FusedSplitPack, t_pack, bytes);
    }
}

/// Both planes of a whole B operand, packed once before the tile grid.
///
/// Layout: `k.div_ceil(kc)` panels, each holding `n.div_ceil(NR)` strips
/// of `kcb x NR` row-major slivers — the B panel layout over the full
/// column range of one k panel. Panels are stored at the stride
/// of a *full* panel (`strips * kc * NR`) so panel offsets don't depend
/// on the ragged depth of the final panel, which ends exactly at the
/// plane's length, [`plane_len`]`(k, n)`. Each plane starts on a 64-byte
/// boundary and every offset above is a multiple of NR = 16 floats, so
/// every panel, strip and strip row starts on a cache line.
///
/// A macro-tile whose column origin `jc` is NR-aligned reads its slivers
/// at global strip `jc/NR + sb`, panel `(pc - k_lo)/kc` of a B packed from
/// the plan's k slice — bit-for-bit the slivers a per-tile pack over
/// that slice would produce, because strip contents depend only on
/// the global column range and zero padding matches at the right edge.
pub(crate) struct PackedB {
    n: usize,
    k: usize,
    kc: usize,
    strips: usize,
    panel_stride: usize,
    hi: Plane,
    lo: Plane,
}

/// Elements in each plane of a packed `k x n` B: `ceil(n/NR)` strips of
/// NR lanes over all `k` rows, whatever the panel depth.
fn plane_len(k: usize, n: usize) -> usize {
    n.div_ceil(NR) * NR * k
}

/// Floats a plane's buffer holds beyond its length, so that a 64-byte
/// boundary falls within its first 16 elements: a `Vec<f32>` is at
/// least 4-byte aligned.
const ALIGN_PAD: usize = 64 / 4 - 1;

/// One packed plane: `len` floats of `buf` from `off`, the first index
/// whose address is a multiple of 64.
struct Plane {
    buf: Vec<f32>,
    off: usize,
    len: usize,
}

impl Plane {
    /// A plane of `len` floats in `reuse` (at least `len + ALIGN_PAD`
    /// long, cut to that with its spare capacity released, so that a
    /// pack pins only its planes and their pads) or in a fresh zeroed
    /// buffer. The offset is taken after the cut, which may move
    /// the buffer.
    ///
    /// A fresh buffer's whole 2 MiB extents are advised huge pages
    /// before the pack first writes them: a large zeroed allocation is
    /// fresh memory the allocator has not written, so its pages are
    /// mapped on that first write. A lent buffer kept the advice it got
    /// when it was fresh.
    fn new(len: usize, reuse: Option<Vec<f32>>) -> Plane {
        let buf = match reuse {
            Some(mut buf) => {
                buf.resize(len + ALIGN_PAD, 0.0);
                buf.shrink_to_fit();
                buf
            }
            None => {
                let buf = vec![0f32; len + ALIGN_PAD];
                advise_huge_pages(&buf);
                buf
            }
        };
        let off = buf.as_ptr().align_offset(64);
        assert!(off <= ALIGN_PAD, "no 64-byte boundary in the pad");
        Plane { buf, off, len }
    }

    fn as_slice(&self) -> &[f32] {
        &self.buf[self.off..self.off + self.len]
    }

    fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.buf[self.off..self.off + self.len]
    }
}

/// Bytes of an x86-64 transparent huge page.
const HUGE_PAGE: usize = 2 << 20;

/// The whole [`HUGE_PAGE`]-aligned extents within the `len` bytes at
/// `addr`, as one start address and length, or `None` when no whole
/// extent fits.
#[cfg_attr(
    not(all(target_arch = "x86_64", target_os = "linux")),
    allow(dead_code)
)]
fn huge_interior(addr: usize, len: usize) -> Option<(usize, usize)> {
    let start = addr.checked_next_multiple_of(HUGE_PAGE)?;
    let end = addr.checked_add(len)? / HUGE_PAGE * HUGE_PAGE;
    (end > start).then(|| (start, end - start))
}

/// Advise the kernel to back the whole 2 MiB extents of `buf` with
/// transparent huge pages (`madvise(MADV_HUGEPAGE)`), so that writing
/// them first faults 2 MiB at a time instead of 4 KiB. A buffer with no
/// whole extent makes no syscall. The advice is a hint, so an error
/// (`EINVAL` where the kernel has no THP) is ignored.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn advise_huge_pages(buf: &[f32]) {
    const SYS_MADVISE: i64 = 28;
    const MADV_HUGEPAGE: i64 = 14;
    if let Some((start, len)) = huge_interior(buf.as_ptr() as usize, std::mem::size_of_val(buf)) {
        // SAFETY: the range lies inside `buf`, memory this process
        // owns. MADV_HUGEPAGE only marks the mappings that cover it as
        // eligible for huge pages: it reads and writes no memory of the
        // process, keeps every byte's value, and unmaps and
        // reprotects nothing.
        let _ = unsafe {
            crate::syscall6(
                SYS_MADVISE,
                start as i64,
                len as i64,
                MADV_HUGEPAGE,
                0,
                0,
                0,
            )
        };
    }
}

/// No huge-page advice off x86-64 Linux: the planes fault as they do.
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
fn advise_huge_pages(_buf: &[f32]) {}

impl PackedB {
    /// The planes of a `k x n` operand at panel depth `kc` (>= 1, already
    /// clamped to the chunk grid by the caller), to be filled by packing
    /// every panel [`PackedB::panels`] yields.
    ///
    /// `reuse` lends the buffers of a pack nobody reads any more, at
    /// least as long as this one's; every element of the planes cut from
    /// them is overwritten by the panels, so their old contents cannot
    /// reach the output. Without them both planes are fresh zeroed
    /// allocations.
    pub(crate) fn new(
        k: usize,
        n: usize,
        kc: usize,
        reuse: Option<(Vec<f32>, Vec<f32>)>,
    ) -> PackedB {
        assert!(kc >= 1, "panel depth must be positive");
        let strips = n.div_ceil(NR);
        let len = plane_len(k, n);
        let (hi, lo) = reuse.unzip();
        PackedB {
            n,
            k,
            kc,
            strips,
            panel_stride: strips * kc * NR,
            hi: Plane::new(len, hi),
            lo: Plane::new(len, lo),
        }
    }

    /// How many panels [`PackedB::panels`] yields: none when `n` or `k`
    /// is 0.
    pub(crate) fn panel_count(&self) -> usize {
        self.hi.len.div_ceil(self.panel_stride.max(1))
    }

    /// Panel `p` packs rows `[p·kc, p·kc + kcb)` of `rows` into the
    /// plane ranges `chunks_mut(panel_stride)` cuts for it, so the
    /// panels borrow disjoint memory and can be packed in any order, on
    /// any thread.
    pub(crate) fn panels<'a>(
        &'a mut self,
        rows: BRows<'a>,
        scheme: SplitScheme,
    ) -> impl Iterator<Item = Panel<'a>> + 'a {
        assert_eq!(
            (rows.k, rows.n),
            (self.k, self.n),
            "B rows disagree with the packed shape"
        );
        let (k, kc, stride) = (self.k, self.kc, self.panel_stride.max(1));
        self.hi
            .as_mut_slice()
            .chunks_mut(stride)
            .zip(self.lo.as_mut_slice().chunks_mut(stride))
            .enumerate()
            .map(move |(p, (hi, lo))| Panel {
                rows: rows.sub(p * kc, kc.min(k - p * kc)),
                scheme,
                hi,
                lo,
            })
    }

    /// Panel depth the operand was packed with.
    pub(crate) fn kc(&self) -> usize {
        self.kc
    }

    /// Reduction depth (B rows).
    pub(crate) fn k(&self) -> usize {
        self.k
    }

    /// Output columns (B columns).
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Resident bytes of both packed planes (each plane's 60-byte
    /// alignment pad is not counted).
    pub(crate) fn bytes(&self) -> usize {
        4 * (self.hi.len + self.lo.len)
    }

    /// What [`PackedB::bytes`] will read for a `k x n` operand, known
    /// before it is packed.
    pub(crate) fn bytes_for(k: usize, n: usize) -> usize {
        2 * 4 * plane_len(k, n)
    }

    /// Both planes' buffers, for [`PackedB::new`] to lend to another
    /// operand.
    pub(crate) fn into_planes(self) -> (Vec<f32>, Vec<f32>) {
        (self.hi.buf, self.lo.buf)
    }

    /// The `kcb x NR` sliver of global strip `strip` in panel `panel`
    /// (whose actual depth is `kcb`).
    #[cfg(test)]
    pub(crate) fn sliver(&self, lo_plane: bool, panel: usize, kcb: usize, strip: usize) -> &[f32] {
        self.sliver_span(lo_plane, panel, kcb, strip, 1)
    }

    /// `take` consecutive strips' slivers as one `take x kcb x NR`
    /// slice — strips of one panel are packed contiguously, which is
    /// what lets the JIT's dual-strip kernels read a fused sliver.
    #[inline]
    pub(crate) fn sliver_span(
        &self,
        lo_plane: bool,
        panel: usize,
        kcb: usize,
        strip: usize,
        take: usize,
    ) -> &[f32] {
        debug_assert!(strip + take <= self.strips && kcb <= self.kc);
        let base = panel * self.panel_stride + strip * kcb * NR;
        &self.plane(lo_plane)[base..base + take * kcb * NR]
    }

    /// The whole lo plane, or the whole hi plane.
    fn plane(&self, lo_plane: bool) -> &[f32] {
        if lo_plane {
            self.lo.as_slice()
        } else {
            self.hi.as_slice()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineRuntime, RuntimeConfig};
    use crate::split_matrix::SplitMatrix;

    /// The layout oracle the fused A pack is compared with: one plane
    /// of A, packed as it is, for the row range `rows_idx` (global A row
    /// indices of the `mcb` output rows) and k panel `[p0, p0 + kcb)`.
    /// `k` is A's row stride. `out` must hold `ceil(mcb/MR) * kcb * MR`
    /// elements.
    fn pack_a(plane: &[f32], k: usize, rows_idx: &[usize], p0: usize, kcb: usize, out: &mut [f32]) {
        let mcb = rows_idx.len();
        let row_blocks = mcb.div_ceil(MR);
        for rb in 0..row_blocks {
            let block = &mut out[rb * kcb * MR..(rb + 1) * kcb * MR];
            for r in 0..MR {
                let i = rb * MR + r;
                if i < mcb {
                    let arow = &plane[rows_idx[i] * k + p0..rows_idx[i] * k + p0 + kcb];
                    for kk in 0..kcb {
                        block[kk * MR + r] = arow[kk];
                    }
                } else {
                    for kk in 0..kcb {
                        block[kk * MR + r] = 0.0;
                    }
                }
            }
        }
    }

    /// The layout oracle for the fused B pack: one plane of B, packed as
    /// it is, for the column range `[j0, j0 + ncb)` and k panel
    /// `[p0, p0 + kcb)`. `n` is B's row stride. `out` must hold
    /// `ceil(ncb/NR) * kcb * NR` elements.
    fn pack_b(
        plane: &[f32],
        n: usize,
        j0: usize,
        ncb: usize,
        p0: usize,
        kcb: usize,
        out: &mut [f32],
    ) {
        let strips = ncb.div_ceil(NR);
        for sb in 0..strips {
            let strip = &mut out[sb * kcb * NR..(sb + 1) * kcb * NR];
            let jbase = j0 + sb * NR;
            let cols = NR.min(ncb - sb * NR);
            for kk in 0..kcb {
                let brow = &plane[(p0 + kk) * n + jbase..(p0 + kk) * n + jbase + cols];
                let dst = &mut strip[kk * NR..kk * NR + NR];
                dst[..cols].copy_from_slice(brow);
                for d in dst[cols..].iter_mut() {
                    *d = 0.0;
                }
            }
        }
    }

    /// A 64-byte-aligned plane of `len` copies of `x`.
    fn filled(len: usize, x: f32) -> Plane {
        let mut plane = Plane::new(len, None);
        plane.as_mut_slice().fill(x);
        plane
    }

    /// `rows` packed whole at depth `kc` on the calling thread.
    fn pack_whole(rows: BRows<'_>, kc: usize, scheme: SplitScheme) -> PackedB {
        let mut packed = PackedB::new(rows.k, rows.n, kc, None);
        packed.panels(rows, scheme).for_each(Panel::pack);
        packed
    }

    #[test]
    fn pack_a_layout_and_padding() {
        // 3 rows (one short of MR), k = 5, panel [1, 4).
        let k = 5;
        let plane: Vec<f32> = (0..3 * k).map(|x| x as f32).collect();
        let rows_idx = [0usize, 1, 2];
        let kcb = 3;
        let mut out = vec![-1.0f32; kcb * MR];
        pack_a(&plane, k, &rows_idx, 1, kcb, &mut out);
        for kk in 0..kcb {
            for r in 0..MR {
                let want = if r < 3 { plane[r * k + 1 + kk] } else { 0.0 };
                assert_eq!(out[kk * MR + r], want, "kk={kk} r={r}");
            }
        }
    }

    #[test]
    fn pack_a_row_gather() {
        let k = 4;
        let plane: Vec<f32> = (0..6 * k).map(|x| x as f32).collect();
        let rows_idx = [5usize, 2];
        let mut out = vec![0.0f32; 2 * MR];
        pack_a(&plane, k, &rows_idx, 2, 2, &mut out);
        assert_eq!(out[0], plane[5 * k + 2]);
        assert_eq!(out[1], plane[2 * k + 2]);
        assert_eq!(out[MR], plane[5 * k + 3]);
    }

    #[test]
    fn pack_b_layout_and_padding() {
        // n = 10, columns [3, 3+9) span two strips, second one ragged.
        let n = 10;
        let kcb = 2;
        let plane: Vec<f32> = (0..4 * n).map(|x| x as f32).collect();
        let ncb = 9usize;
        let strips = ncb.div_ceil(NR);
        let mut out = vec![-1.0f32; strips * kcb * NR];
        pack_b(&plane, n, 3, ncb, 1, kcb, &mut out);
        for sb in 0..strips {
            for kk in 0..kcb {
                for c in 0..NR {
                    let j = sb * NR + c;
                    let want = if j < ncb {
                        plane[(1 + kk) * n + 3 + j]
                    } else {
                        0.0
                    };
                    assert_eq!(
                        out[sb * kcb * NR + kk * NR + c],
                        want,
                        "sb={sb} kk={kk} c={c}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_b_slivers_match_per_tile_pack() {
        // A ragged shape: k = 23 over kc = 8 (final panel depth 7),
        // n = 37 over NR strips (final strip ragged). Every sliver of
        // the whole-operand pack must equal the sliver a per-tile pack
        // over any NR-aligned column range would produce.
        let (k, n, kc) = (23usize, 37usize, 8usize);
        let src = Matrix::<f32>::random_uniform(k, n, 42);
        let split = SplitMatrix::split(&src, SplitScheme::Round);
        let packed = pack_whole(BRows::raw(&src, 0..k), kc, SplitScheme::Round);
        assert_eq!((packed.k(), packed.n(), packed.kc()), (k, n, kc));
        for lo_plane in [false, true] {
            let plane = split.plane(lo_plane);
            // Tile column origin jc = 16 (one NR strip in), width 21
            // (spans strips 1 and the ragged final strip 2).
            let (jc, ncb) = (NR, (n - NR).min(2 * NR));
            let strips = ncb.div_ceil(NR);
            let mut pc = 0usize;
            while pc < k {
                let kcb = kc.min(k - pc);
                let mut tile = vec![-1.0f32; strips * kcb * NR];
                pack_b(plane, n, jc, ncb, pc, kcb, &mut tile);
                for sb in 0..strips {
                    let want = &tile[sb * kcb * NR..(sb + 1) * kcb * NR];
                    let got = packed.sliver(lo_plane, pc / kc, kcb, jc / NR + sb);
                    assert_eq!(got, want, "lo={lo_plane} pc={pc} sb={sb}");
                }
                pc += kcb;
            }
        }
    }

    #[test]
    fn pack_a_fused_bit_identical_to_staged() {
        // Ragged everything: 7 rows (MR padding), gathered out of order,
        // panel offset 2, depth 5. Fused output must equal pack_a over
        // each plane of the split matrix, for both kernels and schemes.
        let k = 9;
        let src = Matrix::<f32>::random_uniform(11, k, 7);
        let split_src: Vec<usize> = vec![10, 3, 0, 7, 1, 4, 9];
        let (p0, kcb) = (2usize, 5usize);
        let blocks = split_src.len().div_ceil(MR);
        for scheme in [SplitScheme::Round, SplitScheme::Truncate] {
            for kernel in [SplitKernel::Scalar, SplitKernel::Auto] {
                let split = SplitMatrix::split_with(&src, scheme, kernel);
                let mut want_hi = vec![-1.0f32; blocks * kcb * MR];
                let mut want_lo = vec![-1.0f32; blocks * kcb * MR];
                pack_a(split.plane(false), k, &split_src, p0, kcb, &mut want_hi);
                pack_a(split.plane(true), k, &split_src, p0, kcb, &mut want_lo);
                let mut hi = vec![-1.0f32; blocks * kcb * MR];
                let mut lo = vec![-1.0f32; blocks * kcb * MR];
                pack_a_fused(
                    src.as_slice(),
                    k,
                    &split_src,
                    p0,
                    kcb,
                    scheme,
                    kernel,
                    &mut hi,
                    &mut lo,
                );
                assert_eq!(
                    (hi, lo),
                    (want_hi, want_lo),
                    "scheme={scheme:?} kernel={kernel:?}"
                );
            }
        }
    }

    #[test]
    fn pack_b_fused_bit_identical_to_staged() {
        // Column range spans a full strip plus a ragged one; panel
        // offset 1 of depth 3 inside a k=6 operand.
        let n = 21;
        let src = Matrix::<f32>::random_uniform(6, n, 13);
        let (j0, ncb, p0, kcb) = (0usize, n, 1usize, 3usize);
        let strips = ncb.div_ceil(NR);
        for scheme in [SplitScheme::Round, SplitScheme::Truncate] {
            for kernel in [SplitKernel::Scalar, SplitKernel::Auto] {
                let split = SplitMatrix::split_with(&src, scheme, kernel);
                let mut want_hi = vec![-1.0f32; strips * kcb * NR];
                let mut want_lo = vec![-1.0f32; strips * kcb * NR];
                pack_b(split.plane(false), n, j0, ncb, p0, kcb, &mut want_hi);
                pack_b(split.plane(true), n, j0, ncb, p0, kcb, &mut want_lo);
                let len = strips * kcb * NR;
                let (mut hi, mut lo) = (filled(len, -1.0), filled(len, -1.0));
                pack_b_fused(
                    src.as_slice(),
                    n,
                    j0,
                    ncb,
                    p0,
                    kcb,
                    scheme,
                    kernel,
                    hi.as_mut_slice(),
                    lo.as_mut_slice(),
                );
                assert_eq!(
                    (hi.as_slice(), lo.as_slice()),
                    (&want_hi[..], &want_lo[..]),
                    "scheme={scheme:?} kernel={kernel:?}"
                );
            }
        }
    }

    #[test]
    fn packed_b_fused_bit_identical_to_staged() {
        // Same ragged shape as the sliver test: final panel depth 7,
        // final strip ragged. Each panel of the fused whole-operand pack
        // must be byte-for-byte the full-width pack_b of the split
        // planes, whichever kernel split them, for both schemes.
        let (k, n, kc) = (23usize, 37usize, 8usize);
        let src = Matrix::<f32>::random_uniform(k, n, 42);
        let strips = n.div_ceil(NR);
        for scheme in [SplitScheme::Round, SplitScheme::Truncate] {
            for kernel in [SplitKernel::Scalar, SplitKernel::Auto] {
                let split = SplitMatrix::split_with(&src, scheme, kernel);
                let fused = pack_whole(BRows::raw(&src, 0..k), kc, scheme);
                assert_eq!((fused.k(), fused.n(), fused.kc()), (k, n, kc));
                for lo_plane in [false, true] {
                    let mut pc = 0usize;
                    while pc < k {
                        let kcb = kc.min(k - pc);
                        let mut want = vec![-1.0f32; strips * kcb * NR];
                        pack_b(split.plane(lo_plane), n, 0, n, pc, kcb, &mut want);
                        let got = fused.sliver_span(lo_plane, pc / kc, kcb, 0, strips);
                        assert_eq!(
                            got,
                            &want[..],
                            "{scheme:?} {kernel:?} lo={lo_plane} pc={pc}"
                        );
                        pc += kcb;
                    }
                }
            }
        }
    }

    #[test]
    fn packed_b_bytes_accounting() {
        // Each plane holds its strips over the real depth k, not over
        // whole kc panels: (k, n, kc) -> strips x NR x k per plane.
        for (k, n, kc, strips) in [(8, 16, 8, 1), (5, 16, 8, 1), (23, 37, 8, 3)] {
            let src = Matrix::<f32>::random_uniform(k, n, 1);
            let packed = pack_whole(BRows::raw(&src, 0..k), kc, SplitScheme::Round);
            // 2 planes x 4 bytes, as the cache charges before packing.
            assert_eq!(
                packed.bytes(),
                2 * 4 * strips * NR * k,
                "k={k} n={n} kc={kc}"
            );
            assert_eq!(PackedB::bytes_for(k, n), packed.bytes());
        }
    }

    #[test]
    fn planes_start_every_panel_and_strip_row_on_a_cache_line() {
        // Fresh planes; lent planes of the exact length; lent planes
        // longer than needed; and lent planes with spare capacity, which
        // `Plane::new` shrinks by a reallocation that may move them.
        let (k, n, kc) = (85usize, 37usize, 40usize);
        let len = plane_len(k, n);
        let lent = |extra: usize, spare: usize| {
            let mut lo = Vec::with_capacity(len + ALIGN_PAD + extra + spare);
            lo.resize(len + ALIGN_PAD + extra, f32::NAN);
            Some((lo.clone(), lo))
        };
        let src = Matrix::<f32>::random_uniform(k, n, 3);
        for reuse in [None, lent(0, 0), lent(3 * NR + 1, 0), lent(1, 1 << 16)] {
            let tag = format!("lent {:?}", reuse.as_ref().map(|(_, lo)| lo.capacity()));
            let mut packed = PackedB::new(k, n, kc, reuse);
            assert_eq!(packed.bytes(), PackedB::bytes_for(k, n), "{tag}");
            let mut panels = 0;
            for panel in packed.panels(BRows::raw(&src, 0..k), SplitScheme::Round) {
                for plane in [&*panel.hi, &*panel.lo] {
                    assert!(
                        plane
                            .chunks(NR)
                            .all(|row| (row.as_ptr() as usize).is_multiple_of(64)),
                        "{tag}: panel {panels} has a strip row off a cache line"
                    );
                }
                panel.pack();
                panels += 1;
            }
            assert_eq!(panels, k.div_ceil(kc), "{tag}");
        }
    }

    /// The bit patterns of `xs`, so a NaN left over from a reused buffer
    /// fails the comparison.
    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// `src` with every fifth element replaced by a special value: NaN
    /// payloads, infinities, the binary16 overflow edge, subnormals and
    /// -0.0, in turn.
    fn with_specials(mut src: Matrix<f32>) -> Matrix<f32> {
        let specials = [
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_0001),
            f32::from_bits(0xffc0_1234),
            f32::INFINITY,
            f32::NEG_INFINITY,
            65504.0,
            65519.9,
            65520.0,
            -65520.0,
            f32::MIN_POSITIVE / 8.0,
            2f32.powi(-25),
            -0.0,
            1.0 + 2f32.powi(-11),
        ];
        for (x, &special) in src
            .as_mut_slice()
            .iter_mut()
            .step_by(5)
            .zip(specials.iter().cycle())
        {
            *x = special;
        }
        src
    }

    /// Prepare two 1024 x 1024 Bs with special values, whose 4 MiB
    /// planes each hold a whole 2 MiB extent, on a 1-worker runtime
    /// whose cache holds one such pack: the first packs into fresh
    /// planes, the second into the same planes, lent by the eviction of
    /// the first. `check` sees each B's tag, source, scheme and pack.
    fn prepare_fresh_then_lent(check: impl Fn(&str, &Matrix<f32>, SplitScheme, &PackedB)) {
        let (k, n, kc) = (1024usize, 1024usize, 256usize);
        let rt = EngineRuntime::new(RuntimeConfig {
            threads: 1,
            cache_bytes: PackedB::bytes_for(k, n),
        });
        let mut first = None;
        for (tag, seed, scheme) in [
            ("fresh", 91, SplitScheme::Round),
            ("lent", 92, SplitScheme::Truncate),
        ] {
            let src = with_specials(Matrix::<f32>::random_uniform(k, n, seed));
            let prepared = rt.prepare_b(&src, scheme, kc);
            let planes = [false, true].map(|lo| prepared.packed.plane(lo).as_ptr());
            assert_eq!(
                *first.get_or_insert(planes),
                planes,
                "{tag}: the second pack must reuse the first's planes"
            );
            check(tag, &src, scheme, &prepared.packed);
        }
        assert_eq!(rt.cache_stats().evictions, 1);
    }

    /// The whole 2 MiB extents of `plane`.
    fn interior(plane: &[f32]) -> (usize, usize) {
        huge_interior(plane.as_ptr() as usize, std::mem::size_of_val(plane))
            .expect("a 4 MiB plane holds a whole 2 MiB extent")
    }

    #[test]
    fn huge_interior_is_aligned_and_inside() {
        let h = HUGE_PAGE;
        let addrs = [
            0,
            1,
            16,
            4096,
            h - 16,
            h,
            h + 16,
            3 * h - 4096,
            usize::MAX - h,
        ];
        let lens = [
            0,
            1,
            h - 1,
            h,
            h + 1,
            2 * h - 1,
            2 * h,
            2 * h + 4096,
            5 * h + 7,
        ];
        for addr in addrs {
            for len in lens {
                let tag = format!("addr {addr:#x} len {len:#x}");
                let fits = addr
                    .checked_next_multiple_of(h)
                    .zip(addr.checked_add(len))
                    .is_some_and(|(first, end)| end >= first && end - first >= h);
                match huge_interior(addr, len) {
                    None => assert!(!fits, "{tag}: a whole extent fits but none was found"),
                    Some((start, bytes)) => {
                        assert!(fits, "{tag}: no whole extent fits");
                        assert!(start.is_multiple_of(h) && bytes.is_multiple_of(h), "{tag}");
                        assert!(bytes >= h, "{tag}: an advised range below 2 MiB");
                        assert!(
                            start >= addr && start + bytes <= addr + len,
                            "{tag}: past an end"
                        );
                        // Every whole extent is in: what is left at
                        // either end is less than one.
                        assert!(
                            start - addr < h && addr + len - (start + bytes) < h,
                            "{tag}"
                        );
                    }
                }
            }
        }
        // The serve mix's largest B, 128 x 128, packs into 64 KiB planes.
        assert_eq!(huge_interior(0, 4 * plane_len(128, 128) + 64), None);
    }

    #[test]
    fn advised_planes_pack_bit_identical() {
        // Every other pack test's planes are under 2 MiB, so only this
        // one packs into advised planes, fresh and lent. k is a multiple
        // of kc, so the plane is its panels back to back.
        let (n, kc) = (1024usize, 256usize);
        prepare_fresh_then_lent(|tag, src, scheme, packed| {
            let split = SplitMatrix::split(src, scheme);
            for lo_plane in [false, true] {
                let plane = packed.plane(lo_plane);
                interior(plane); // so the plane was advised
                let mut want = vec![-1.0f32; plane.len()];
                for (p, panel) in want.chunks_mut(n.div_ceil(NR) * kc * NR).enumerate() {
                    pack_b(split.plane(lo_plane), n, 0, n, p * kc, kc, panel);
                }
                assert_eq!(bits(plane), bits(&want), "{tag} {scheme:?} lo={lo_plane}");
            }
        });
    }

    /// The `VmFlags` of the `/proc/self/smaps` entry whose range holds
    /// `addr`.
    fn vm_flags(addr: usize) -> Option<String> {
        let smaps = std::fs::read_to_string("/proc/self/smaps").ok()?;
        let mut inside = false;
        for line in smaps.lines() {
            if let Some(flags) = line.strip_prefix("VmFlags:") {
                if inside {
                    return Some(flags.trim().to_string());
                }
            } else if let Some((lo, hi)) = line
                .split_once(' ')
                .and_then(|(range, _)| range.split_once('-'))
            {
                if let (Ok(lo), Ok(hi)) =
                    (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
                {
                    inside = (lo..hi).contains(&addr);
                }
            }
        }
        None
    }

    #[test]
    fn advised_planes_carry_the_huge_page_flag() {
        // This checks the advice (`hg`, the mapping's VM_HUGEPAGE), not
        // whether the kernel found a free huge page to back it.
        let thp = std::path::Path::new("/sys/kernel/mm/transparent_hugepage/enabled");
        if !cfg!(all(target_arch = "x86_64", target_os = "linux")) || !thp.exists() {
            eprintln!("skipping: no transparent huge pages on this host");
            return;
        }
        prepare_fresh_then_lent(|tag, _, _, packed| {
            for lo_plane in [false, true] {
                let (start, bytes) = interior(packed.plane(lo_plane));
                for addr in [start, start + bytes - 1] {
                    let flags = vm_flags(addr).expect("smaps lists every mapped address");
                    assert!(
                        flags.split_whitespace().any(|f| f == "hg"),
                        "{tag} plane lo={lo_plane} at {addr:#x}: VmFlags {flags:?} lack hg"
                    );
                }
            }
        });
    }

    #[test]
    fn blocked_pack_bit_identical_at_real_depths() {
        // k = 85 over kc = 40: panels of depth 40, 40 and 5, so panels
        // span two full 16-row blocks and a ragged one (40 mod 16 = 8).
        // n = 37 leaves the last strip 5 lanes wide. Rows 13..85 and
        // 27..66 start off a kc multiple (panels 40 + 32 deep, and one
        // 39 deep). Views of two of those row ranges are packed in one
        // claim list on pools of 1, 2, 4 and 8 workers, into reused
        // planes longer than needed and filled with NaN. Every fifth
        // element of B is a special value, so NaN payloads, infinities,
        // the binary16 overflow edge, subnormals and -0.0 cross the
        // streaming stores of every pool width.
        let (k, n, kc) = (85usize, 37usize, 40usize);
        let strips = n.div_ceil(NR);
        let src = with_specials(Matrix::<f32>::random_uniform(k, n, 85));
        let pools = [1usize, 2, 4, 8].map(|threads| {
            EngineRuntime::new(RuntimeConfig {
                threads,
                cache_bytes: 0,
            })
        });
        let pairs = [(0..k, 27..66), (13..k, 0..k), (27..66, 13..k)];
        for scheme in [SplitScheme::Round, SplitScheme::Truncate] {
            for kernel in [SplitKernel::Scalar, SplitKernel::Auto] {
                let split = SplitMatrix::split_with(&src, scheme, kernel);
                for ((rows, other), rt) in pairs
                    .iter()
                    .flat_map(|pair| pools.iter().map(move |rt| (pair.clone(), rt)))
                {
                    let stale = |view: &BRows<'_>| {
                        let plane = vec![f32::NAN; plane_len(view.k, n) + 3 * NR];
                        Some((plane.clone(), plane))
                    };
                    let mut ops = [rows.clone(), other.clone()]
                        .map(|r| BRows::raw(&src, r))
                        .map(|view| (PackedB::new(view.k, view.n, kc, stale(&view)), view));
                    rt.pack_panels(&mut ops, scheme);
                    for (range, (packed, _)) in [rows, other].iter().zip(&ops) {
                        let tag = format!(
                            "{scheme:?} {kernel:?} rows {range:?} threads={}",
                            rt.default_threads()
                        );
                        let len = plane_len(range.len(), n);
                        assert_eq!(packed.bytes(), 2 * 4 * len, "{tag}");
                        for lo_plane in [false, true] {
                            let mut pc = range.start;
                            while pc < range.end {
                                let kcb = kc.min(range.end - pc);
                                let mut want = vec![-1.0f32; strips * kcb * NR];
                                pack_b(split.plane(lo_plane), n, 0, n, pc, kcb, &mut want);
                                for sb in 0..strips {
                                    assert_eq!(
                                        bits(packed.sliver(
                                            lo_plane,
                                            (pc - range.start) / kc,
                                            kcb,
                                            sb
                                        )),
                                        bits(&want[sb * kcb * NR..(sb + 1) * kcb * NR]),
                                        "{tag} lo={lo_plane} pc={pc} sb={sb}"
                                    );
                                }
                                pc += kcb;
                            }
                        }
                    }
                }
                let tag = format!("{scheme:?} {kernel:?}");
                // One tile: column origin j0 = 3, width 30 (a ragged
                // second strip), the middle panel, NaN-filled output.
                let (j0, ncb, p0, kcb) = (3usize, 30usize, kc, kc);
                let tile_len = ncb.div_ceil(NR) * kcb * NR;
                let (mut hi, mut lo) = (filled(tile_len, f32::NAN), filled(tile_len, f32::NAN));
                pack_b_fused(
                    src.as_slice(),
                    n,
                    j0,
                    ncb,
                    p0,
                    kcb,
                    scheme,
                    kernel,
                    hi.as_mut_slice(),
                    lo.as_mut_slice(),
                );
                for (lo_plane, got) in [(false, hi.as_slice()), (true, lo.as_slice())] {
                    let mut want = vec![-1.0f32; tile_len];
                    pack_b(split.plane(lo_plane), n, j0, ncb, p0, kcb, &mut want);
                    assert_eq!(bits(got), bits(&want), "{tag} tile lo={lo_plane}");
                }
            }
        }
    }
}
