//! SIMD data split: vectorized round/truncate split of binary32 slices.
//!
//! The split phase is `O(N²)` against the GEMM's `O(N³)`, but for the
//! skewed serving shapes the host engine targets (small `m`, large
//! `n = k`) it dominates wall time: the scalar
//! [`SplitScheme::split`](crate::SplitScheme::split) path routes every
//! element through a branchy binary64 decompose/round sequence
//! (~190 cycles/element measured). This module processes 8 lanes per
//! iteration on x86-64 with AVX + F16C: `vcvtps2ph` performs the same
//! correctly-rounded binary32→binary16 narrowing the software path
//! implements (RNE for round-split, RTZ for truncate-split),
//! `vcvtph2ps` the same exact widening, and a compare-and-mask replaces
//! the `is_finite` branch of the scalar residual computation.
//!
//! [`split_strips_f32`] writes the engine's packed B strips directly,
//! with streaming (non-temporal) stores and a closing store fence.
//!
//! **Bit identity is a hard contract**: for every input — normals,
//! subnormals, ±0, ±inf, NaNs, values on rounding ties, values past the
//! binary16 overflow threshold — the SIMD path must produce the same
//! `(hi, lo)` encodings and the same widened binary32 planes as the
//! scalar path, which remains both the portable fallback and the test
//! oracle (see the exhaustive sweep in this module's tests).

use crate::half::Half;
use crate::split::SplitScheme;

/// Which split implementation to run.
///
/// `Auto` dispatches to the SIMD path when the CPU supports it and is
/// the default everywhere; `Scalar` forces the portable path — used by
/// benches to measure the pre-SIMD baseline and by tests as the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitKernel {
    /// Runtime-dispatched: SIMD when available, scalar otherwise.
    #[default]
    Auto,
    /// Portable scalar reference path.
    Scalar,
}

/// `true` iff the SIMD split path will be used by [`SplitKernel::Auto`]
/// on this machine.
pub fn simd_split_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("f16c")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Split `xs` into the four parallel planes the GEMM engine consumes:
/// binary16 `hi`/`lo` encodings plus their exact binary32 widenings.
/// All four output slices must have the same length as `xs`.
///
/// Output is bit-identical regardless of `kernel` or CPU features.
pub fn split_planes(
    kernel: SplitKernel,
    scheme: SplitScheme,
    xs: &[f32],
    hi: &mut [Half],
    lo: &mut [Half],
    hi_f32: &mut [f32],
    lo_f32: &mut [f32],
) {
    assert_eq!(xs.len(), hi.len(), "hi plane length mismatch");
    assert_eq!(xs.len(), lo.len(), "lo plane length mismatch");
    assert_eq!(xs.len(), hi_f32.len(), "hi_f32 plane length mismatch");
    assert_eq!(xs.len(), lo_f32.len(), "lo_f32 plane length mismatch");
    #[cfg(target_arch = "x86_64")]
    if kernel == SplitKernel::Auto && simd_split_available() {
        // SAFETY: AVX2 + F16C support just verified.
        unsafe { x86::split_planes_f16c(scheme, xs, hi, lo, hi_f32, lo_f32) };
        return;
    }
    let _ = kernel;
    split_planes_scalar(scheme, xs, hi, lo, hi_f32, lo_f32);
}

/// The portable scalar path: one [`SplitScheme::split`] per element.
/// This is the reference the SIMD path is verified against.
pub fn split_planes_scalar(
    scheme: SplitScheme,
    xs: &[f32],
    hi: &mut [Half],
    lo: &mut [Half],
    hi_f32: &mut [f32],
    lo_f32: &mut [f32],
) {
    for (i, &x) in xs.iter().enumerate() {
        let s = scheme.split(x);
        hi[i] = s.hi;
        lo[i] = s.lo;
        hi_f32[i] = s.hi.to_f32();
        lo_f32[i] = s.lo.to_f32();
    }
}

/// Split `xs` into only the binary32 widened planes — the pair the GEMM
/// microkernel actually reads. This is the fused split+pack primitive:
/// packing routines call it on raw operand rows to emit term slivers
/// directly, skipping the binary16 encodings (and the whole
/// `SplitMatrix` staging buffer) that [`split_planes`] materializes.
///
/// Bit-identical to the `hi_f32`/`lo_f32` planes of [`split_planes`] on
/// the same input, regardless of `kernel` or CPU features: the split is
/// elementwise, so which segment of an operand a call covers can never
/// change a lane's result.
pub fn split_planes_f32(
    kernel: SplitKernel,
    scheme: SplitScheme,
    xs: &[f32],
    hi_f32: &mut [f32],
    lo_f32: &mut [f32],
) {
    assert_eq!(xs.len(), hi_f32.len(), "hi_f32 plane length mismatch");
    assert_eq!(xs.len(), lo_f32.len(), "lo_f32 plane length mismatch");
    #[cfg(target_arch = "x86_64")]
    if kernel == SplitKernel::Auto && simd_split_available() {
        // SAFETY: AVX2 + F16C support just verified.
        unsafe { x86::split_planes_f32_f16c(scheme, xs, hi_f32, lo_f32) };
        return;
    }
    let _ = kernel;
    split_planes_f32_scalar(scheme, xs, hi_f32, lo_f32);
}

/// Scalar reference for [`split_planes_f32`].
pub fn split_planes_f32_scalar(
    scheme: SplitScheme,
    xs: &[f32],
    hi_f32: &mut [f32],
    lo_f32: &mut [f32],
) {
    for (i, &x) in xs.iter().enumerate() {
        let s = scheme.split(x);
        hi_f32[i] = s.hi.to_f32();
        lo_f32[i] = s.lo.to_f32();
    }
}

/// [`split_planes_f32`] with a scatter stride: element `i` of `xs` lands
/// at `hi_f32[i * stride]` / `lo_f32[i * stride]`. This writes the
/// column-major `kcb x MR` A slivers the microkernel consumes (one call
/// per register-tile row, `stride = MR`) without a transpose pass.
///
/// The output slices must each hold at least `(xs.len() - 1) * stride + 1`
/// elements; positions between the written lanes are left untouched.
pub fn split_planes_f32_strided(
    kernel: SplitKernel,
    scheme: SplitScheme,
    xs: &[f32],
    hi_f32: &mut [f32],
    lo_f32: &mut [f32],
    stride: usize,
) {
    assert!(stride >= 1, "stride must be positive");
    if xs.is_empty() {
        return;
    }
    let need = (xs.len() - 1) * stride + 1;
    assert!(hi_f32.len() >= need, "hi_f32 plane length mismatch");
    assert!(lo_f32.len() >= need, "lo_f32 plane length mismatch");
    #[cfg(target_arch = "x86_64")]
    if kernel == SplitKernel::Auto && simd_split_available() {
        // SAFETY: AVX2 + F16C support just verified.
        unsafe { x86::split_planes_f32_strided_f16c(scheme, xs, hi_f32, lo_f32, stride) };
        return;
    }
    let _ = kernel;
    split_planes_f32_strided_scalar(scheme, xs, hi_f32, lo_f32, stride);
}

/// Scalar reference for [`split_planes_f32_strided`].
pub fn split_planes_f32_strided_scalar(
    scheme: SplitScheme,
    xs: &[f32],
    hi_f32: &mut [f32],
    lo_f32: &mut [f32],
    stride: usize,
) {
    for (i, &x) in xs.iter().enumerate() {
        let s = scheme.split(x);
        hi_f32[i * stride] = s.hi.to_f32();
        lo_f32[i * stride] = s.lo.to_f32();
    }
}

/// Lanes in one strip row of [`split_strips_f32`]: 16 binary32 values,
/// one 64-byte cache line.
pub const LINE: usize = 16;

/// Split a `rows x width` block of row-major `src` (row stride
/// `stride`) straight into strips of whole cache lines in both widened
/// planes: strip `s` holds columns `[LINE·s, LINE·s + LINE)`, and its
/// row `r` is the line at element `s·strip_stride + LINE·r` of `hi_f32`
/// and `lo_f32`. Lanes past `width` in a ragged last strip are +0.0 (the
/// split of +0.0); nothing else in the planes is touched.
///
/// The SIMD path writes every line with non-temporal stores, the hi line
/// and then the lo line, so planes much larger than the cache are never
/// read from memory only to be overwritten. It ends with a store fence,
/// so the lines are ordered before any later store of the caller, such
/// as the one that hands the planes to another thread. Both planes must
/// start on a 64-byte boundary and `strip_stride` must be a multiple of
/// `LINE` (asserted on every path), so that every line is one cache
/// line.
///
/// Bit-identical to [`split_planes_f32_scalar`] over each row segment,
/// regardless of `kernel` or CPU features.
#[allow(clippy::too_many_arguments)]
pub fn split_strips_f32(
    kernel: SplitKernel,
    scheme: SplitScheme,
    src: &[f32],
    stride: usize,
    rows: usize,
    width: usize,
    hi_f32: &mut [f32],
    lo_f32: &mut [f32],
    strip_stride: usize,
) {
    let strips = width.div_ceil(LINE);
    if rows == 0 || strips == 0 {
        return;
    }
    // Checked: the streaming path addresses both sides by raw pointer.
    let src_end = (rows - 1)
        .checked_mul(stride)
        .and_then(|o| o.checked_add(width));
    assert!(
        src_end.is_some_and(|e| e <= src.len()),
        "src too short for {rows} rows of {width}"
    );
    assert_eq!(strip_stride % LINE, 0, "strips not whole lines apart");
    let end = (strips - 1)
        .checked_mul(strip_stride)
        .and_then(|o| o.checked_add(rows.checked_mul(LINE)?));
    for plane in [&*hi_f32, &*lo_f32] {
        assert!(
            end.is_some_and(|e| e <= plane.len()),
            "plane too short for {strips} strips"
        );
        assert_eq!(plane.as_ptr() as usize % 64, 0, "plane not 64-byte aligned");
    }
    #[cfg(target_arch = "x86_64")]
    if kernel == SplitKernel::Auto && simd_split_available() {
        // SAFETY: AVX2 + F16C support just verified. The asserts above
        // put every row segment inside `src` and every line inside both
        // planes, 64-byte aligned as the streaming stores require; the
        // callee's closing `sfence` orders those stores before this
        // thread's later ones, so the planes then read as ordinary
        // memory to whichever thread the caller hands them.
        unsafe {
            x86::split_strips_f16c(
                scheme,
                src,
                stride,
                rows,
                width,
                hi_f32,
                lo_f32,
                strip_stride,
            )
        };
        return;
    }
    let _ = kernel;
    split_strips_f32_scalar(
        scheme,
        src,
        stride,
        rows,
        width,
        hi_f32,
        lo_f32,
        strip_stride,
    );
}

/// Scalar reference for [`split_strips_f32`]: one
/// [`split_planes_f32_scalar`] call per line, with ordinary stores and
/// no alignment requirement.
#[allow(clippy::too_many_arguments)]
pub fn split_strips_f32_scalar(
    scheme: SplitScheme,
    src: &[f32],
    stride: usize,
    rows: usize,
    width: usize,
    hi_f32: &mut [f32],
    lo_f32: &mut [f32],
    strip_stride: usize,
) {
    for s in 0..width.div_ceil(LINE) {
        let cols = LINE.min(width - s * LINE);
        for r in 0..rows {
            let seg = &src[r * stride + s * LINE..][..cols];
            let line = s * strip_stride + r * LINE;
            let (hi, lo) = (
                &mut hi_f32[line..line + LINE],
                &mut lo_f32[line..line + LINE],
            );
            split_planes_f32_scalar(scheme, seg, &mut hi[..cols], &mut lo[..cols]);
            hi[cols..].fill(0.0);
            lo[cols..].fill(0.0);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use core::arch::x86_64::*;

    /// 8-lane split: `vcvtps2ph` narrows (RNE or RTZ per scheme),
    /// `vcvtph2ps` widens back exactly, `x - hi` runs as one `vsubps`,
    /// and non-finite `hi` lanes have their residual masked to +0.0 —
    /// the vector form of the scalar `if hi.is_finite()` guard.
    ///
    /// # Safety
    /// Caller must verify AVX2 and F16C support; slice lengths are
    /// checked by the public wrapper.
    #[target_feature(enable = "avx2,f16c")]
    pub(super) unsafe fn split_planes_f16c(
        scheme: SplitScheme,
        xs: &[f32],
        hi: &mut [Half],
        lo: &mut [Half],
        hi_f32: &mut [f32],
        lo_f32: &mut [f32],
    ) {
        match scheme {
            SplitScheme::Round => {
                split_lanes::<{ _MM_FROUND_TO_NEAREST_INT }>(xs, hi, lo, hi_f32, lo_f32)
            }
            SplitScheme::Truncate => {
                split_lanes::<{ _MM_FROUND_TO_ZERO }>(xs, hi, lo, hi_f32, lo_f32)
            }
        }
        // Ragged tail: the scalar path is the definition, so delegating
        // the last `len % 8` lanes to it is trivially bit-identical.
        let tail = xs.len() - xs.len() % 8;
        split_planes_scalar(
            scheme,
            &xs[tail..],
            &mut hi[tail..],
            &mut lo[tail..],
            &mut hi_f32[tail..],
            &mut lo_f32[tail..],
        );
    }

    /// Both split schemes are the same dataflow with a different
    /// narrowing rounding mode, so the rounding immediate is the only
    /// parameter. `vcvtps2ph` with RTZ saturates overflow to ±65504 and
    /// with RNE rounds it to ±inf — exactly the scalar conversions —
    /// and quiets NaNs while keeping the top 10 payload bits, matching
    /// `f64_to_f16_bits_round`'s NaN handling (the binary32→binary64
    /// hop in the scalar path shifts the payload by 29 bits, so both
    /// keep the same top-10 slice).
    #[target_feature(enable = "avx2,f16c")]
    unsafe fn split_lanes<const IMM: i32>(
        xs: &[f32],
        hi: &mut [Half],
        lo: &mut [Half],
        hi_f32: &mut [f32],
        lo_f32: &mut [f32],
    ) {
        let sign_mask = _mm256_set1_ps(-0.0);
        let f16_max = _mm256_set1_ps(65504.0);
        for i in (0..xs.len() / 8).map(|b| b * 8) {
            let x = _mm256_loadu_ps(xs.as_ptr().add(i));
            let h_bits = _mm256_cvtps_ph::<IMM>(x);
            let h = _mm256_cvtph_ps(h_bits);
            // Finite iff |hi| <= 65504: the widened hi is an exact
            // binary16 value, so the ordered compare is false only for
            // ±inf and NaN lanes (the scalar path zeroes those
            // residuals; `and` with the all-zeros mask lane produces
            // the same +0.0).
            let finite = _mm256_cmp_ps::<_CMP_LE_OQ>(_mm256_andnot_ps(sign_mask, h), f16_max);
            let residual = _mm256_and_ps(_mm256_sub_ps(x, h), finite);
            let l_bits = _mm256_cvtps_ph::<IMM>(residual);
            let l = _mm256_cvtph_ps(l_bits);
            _mm_storeu_si128(hi.as_mut_ptr().add(i) as *mut __m128i, h_bits);
            _mm_storeu_si128(lo.as_mut_ptr().add(i) as *mut __m128i, l_bits);
            _mm256_storeu_ps(hi_f32.as_mut_ptr().add(i), h);
            _mm256_storeu_ps(lo_f32.as_mut_ptr().add(i), l);
        }
    }

    /// Fused-path split: binary32 planes only, same per-lane pipeline as
    /// [`split_lanes`] minus the binary16 stores.
    ///
    /// # Safety
    /// Caller must verify AVX2 and F16C support; slice lengths are
    /// checked by the public wrapper.
    #[target_feature(enable = "avx2,f16c")]
    pub(super) unsafe fn split_planes_f32_f16c(
        scheme: SplitScheme,
        xs: &[f32],
        hi_f32: &mut [f32],
        lo_f32: &mut [f32],
    ) {
        match scheme {
            SplitScheme::Round => f32_lanes::<{ _MM_FROUND_TO_NEAREST_INT }>(xs, hi_f32, lo_f32),
            SplitScheme::Truncate => f32_lanes::<{ _MM_FROUND_TO_ZERO }>(xs, hi_f32, lo_f32),
        }
        let tail = xs.len() - xs.len() % 8;
        split_planes_f32_scalar(
            scheme,
            &xs[tail..],
            &mut hi_f32[tail..],
            &mut lo_f32[tail..],
        );
    }

    /// The widened `(hi, lo)` of 8 lanes: [`split_lanes`]' pipeline
    /// without the binary16 encodings.
    #[target_feature(enable = "avx2,f16c")]
    #[inline]
    fn split8<const IMM: i32>(x: __m256) -> (__m256, __m256) {
        let h = _mm256_cvtph_ps(_mm256_cvtps_ph::<IMM>(x));
        let magnitude = _mm256_andnot_ps(_mm256_set1_ps(-0.0), h);
        let finite = _mm256_cmp_ps::<_CMP_LE_OQ>(magnitude, _mm256_set1_ps(65504.0));
        let residual = _mm256_and_ps(_mm256_sub_ps(x, h), finite);
        (h, _mm256_cvtph_ps(_mm256_cvtps_ph::<IMM>(residual)))
    }

    #[target_feature(enable = "avx2,f16c")]
    unsafe fn f32_lanes<const IMM: i32>(xs: &[f32], hi_f32: &mut [f32], lo_f32: &mut [f32]) {
        for i in (0..xs.len() / 8).map(|b| b * 8) {
            let (h, l) = split8::<IMM>(_mm256_loadu_ps(xs.as_ptr().add(i)));
            _mm256_storeu_ps(hi_f32.as_mut_ptr().add(i), h);
            _mm256_storeu_ps(lo_f32.as_mut_ptr().add(i), l);
        }
    }

    /// Strided fused-path split: the vector pipeline computes 8 lanes,
    /// then scatters them `stride` elements apart through stack
    /// staging buffers (there is no efficient f32 scatter below
    /// AVX-512, and the panel slivers are small enough that the copies
    /// stay in L1).
    ///
    /// # Safety
    /// Caller must verify AVX2 and F16C support; the public wrapper
    /// checked that both outputs hold `(len - 1) * stride + 1` elements.
    #[target_feature(enable = "avx2,f16c")]
    pub(super) unsafe fn split_planes_f32_strided_f16c(
        scheme: SplitScheme,
        xs: &[f32],
        hi_f32: &mut [f32],
        lo_f32: &mut [f32],
        stride: usize,
    ) {
        match scheme {
            SplitScheme::Round => {
                strided_lanes::<{ _MM_FROUND_TO_NEAREST_INT }>(xs, hi_f32, lo_f32, stride)
            }
            SplitScheme::Truncate => {
                strided_lanes::<{ _MM_FROUND_TO_ZERO }>(xs, hi_f32, lo_f32, stride)
            }
        }
        let tail = xs.len() - xs.len() % 8;
        if tail < xs.len() {
            split_planes_f32_strided_scalar(
                scheme,
                &xs[tail..],
                &mut hi_f32[tail * stride..],
                &mut lo_f32[tail * stride..],
                stride,
            );
        }
    }

    #[target_feature(enable = "avx2,f16c")]
    unsafe fn strided_lanes<const IMM: i32>(
        xs: &[f32],
        hi_f32: &mut [f32],
        lo_f32: &mut [f32],
        stride: usize,
    ) {
        let mut hbuf = [0f32; 8];
        let mut lbuf = [0f32; 8];
        for i in (0..xs.len() / 8).map(|b| b * 8) {
            let (h, l) = split8::<IMM>(_mm256_loadu_ps(xs.as_ptr().add(i)));
            _mm256_storeu_ps(hbuf.as_mut_ptr(), h);
            _mm256_storeu_ps(lbuf.as_mut_ptr(), l);
            for (j, (&hv, &lv)) in hbuf.iter().zip(lbuf.iter()).enumerate() {
                hi_f32[(i + j) * stride] = hv;
                lo_f32[(i + j) * stride] = lv;
            }
        }
    }

    /// Strip split with streaming stores. Each row segment is loaded as
    /// two 8-lane halves (a ragged last strip's through a zeroed stack
    /// row, whose lanes past the segment stay +0.0) and split by
    /// [`split8`], and its hi line then its lo line are each written by
    /// two back-to-back `vmovntps`, so a write-combining buffer fills a
    /// whole line and sends it without reading the old one. The closing
    /// `sfence` orders those weakly-ordered stores before every later
    /// store of this thread, such as the unlock or pool hand-off that
    /// publishes the planes to other threads.
    ///
    /// # Safety
    /// Caller must verify AVX2 and F16C support and uphold
    /// [`split_strips_f32`]'s asserts: every row segment inside `src`,
    /// every line inside both planes, both planes 64-byte aligned and
    /// `strip_stride` a multiple of `LINE` (the streaming stores fault
    /// on a misaligned address).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,f16c")]
    pub(super) unsafe fn split_strips_f16c(
        scheme: SplitScheme,
        src: &[f32],
        stride: usize,
        rows: usize,
        width: usize,
        hi_f32: &mut [f32],
        lo_f32: &mut [f32],
        strip_stride: usize,
    ) {
        let mut row = [0f32; LINE];
        for s in 0..width.div_ceil(LINE) {
            let cols = LINE.min(width - s * LINE);
            for r in 0..rows {
                let seg = src.as_ptr().add(r * stride + s * LINE);
                let x = if cols == LINE {
                    seg
                } else {
                    std::ptr::copy_nonoverlapping(seg, row.as_mut_ptr(), cols);
                    row.as_ptr()
                };
                let (x0, x1) = (_mm256_loadu_ps(x), _mm256_loadu_ps(x.add(8)));
                let ((h0, l0), (h1, l1)) = match scheme {
                    SplitScheme::Round => (
                        split8::<{ _MM_FROUND_TO_NEAREST_INT }>(x0),
                        split8::<{ _MM_FROUND_TO_NEAREST_INT }>(x1),
                    ),
                    SplitScheme::Truncate => (
                        split8::<{ _MM_FROUND_TO_ZERO }>(x0),
                        split8::<{ _MM_FROUND_TO_ZERO }>(x1),
                    ),
                };
                let line = s * strip_stride + r * LINE;
                let (hi, lo) = (hi_f32.as_mut_ptr().add(line), lo_f32.as_mut_ptr().add(line));
                _mm256_stream_ps(hi, h0);
                _mm256_stream_ps(hi.add(8), h1);
                _mm256_stream_ps(lo, l0);
                _mm256_stream_ps(lo.add(8), l1);
            }
        }
        _mm_sfence();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::f16_bits_to_f32;

    /// Adversarial inputs: every binary16 value widened (hits every
    /// exponent/mantissa pattern including subnormals, ±0, ±inf, NaNs),
    /// rounding ties, overflow-threshold neighbours, f32 subnormals,
    /// signalling/quiet NaNs with payloads, and a pseudo-random sweep.
    fn adversarial_inputs() -> Vec<f32> {
        let mut xs: Vec<f32> = (0..=u16::MAX).map(f16_bits_to_f32).collect();
        xs.extend([
            0.0f32,
            -0.0,
            1.0 + 2f32.powi(-11),       // exact RNE tie at 1.0
            1.0 + 3.0 * 2f32.powi(-11), // tie, odd mantissa
            -(1.0 + 2f32.powi(-11)),
            1.0 + 2f32.powi(-11) + 2f32.powi(-22), // just above the tie
            65519.9,
            65520.0, // RNE overflow threshold
            65536.0,
            -65520.0,
            1e30,
            -1e30,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::MIN_POSITIVE / 8.0, // f32 subnormal
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_0001), // signalling NaN, tiny payload
            f32::from_bits(0xffc0_1234), // quiet NaN with payload
            f32::from_bits(0x7fbf_ffff), // all-ones payload sNaN
            2f32.powi(-24) * 1.5,        // binary16 subnormal tie
            2f32.powi(-25),              // below half the f16 quantum
        ]);
        let mut s: u32 = 0x1234_5678;
        for _ in 0..40_000 {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            xs.push(f32::from_bits(s));
            let v = ((s >> 8) as f32 / (1u32 << 24) as f32) * 2.0 - 1.0;
            xs.push(v);
        }
        xs
    }

    fn assert_paths_identical(scheme: SplitScheme, xs: &[f32]) {
        let n = xs.len();
        let mut got = (
            vec![Half::ZERO; n],
            vec![Half::ZERO; n],
            vec![0f32; n],
            vec![0f32; n],
        );
        let mut want = (
            vec![Half::ZERO; n],
            vec![Half::ZERO; n],
            vec![0f32; n],
            vec![0f32; n],
        );
        split_planes(
            SplitKernel::Auto,
            scheme,
            xs,
            &mut got.0,
            &mut got.1,
            &mut got.2,
            &mut got.3,
        );
        split_planes_scalar(
            scheme,
            xs,
            &mut want.0,
            &mut want.1,
            &mut want.2,
            &mut want.3,
        );
        for (i, x) in xs.iter().enumerate().take(n) {
            assert_eq!(
                got.0[i].to_bits(),
                want.0[i].to_bits(),
                "{scheme:?} hi diverges for input {:#010x} ({})",
                x.to_bits(),
                x
            );
            assert_eq!(
                got.1[i].to_bits(),
                want.1[i].to_bits(),
                "{scheme:?} lo diverges for input {:#010x} ({})",
                x.to_bits(),
                x
            );
            assert_eq!(got.2[i].to_bits(), want.2[i].to_bits(), "hi_f32 at {i}");
            assert_eq!(got.3[i].to_bits(), want.3[i].to_bits(), "lo_f32 at {i}");
        }
    }

    #[test]
    fn simd_round_split_bit_identical_to_scalar() {
        assert_paths_identical(SplitScheme::Round, &adversarial_inputs());
    }

    #[test]
    fn simd_truncate_split_bit_identical_to_scalar() {
        assert_paths_identical(SplitScheme::Truncate, &adversarial_inputs());
    }

    #[test]
    fn ragged_tails_every_length() {
        // Lengths 0..=17 cover empty, sub-vector, and vector+tail cases.
        let base = adversarial_inputs();
        for len in 0..=17usize {
            assert_paths_identical(SplitScheme::Round, &base[100..100 + len]);
        }
    }

    #[test]
    fn forced_scalar_matches_auto() {
        let xs = [0.1f32, -0.25, 1.0, 0.333, -0.97, 1e30, f32::NAN, 0.5];
        let n = xs.len();
        let mut a = (
            vec![Half::ZERO; n],
            vec![Half::ZERO; n],
            vec![0f32; n],
            vec![0f32; n],
        );
        let mut b = (
            vec![Half::ZERO; n],
            vec![Half::ZERO; n],
            vec![0f32; n],
            vec![0f32; n],
        );
        split_planes(
            SplitKernel::Scalar,
            SplitScheme::Round,
            &xs,
            &mut a.0,
            &mut a.1,
            &mut a.2,
            &mut a.3,
        );
        split_planes(
            SplitKernel::Auto,
            SplitScheme::Round,
            &xs,
            &mut b.0,
            &mut b.1,
            &mut b.2,
            &mut b.3,
        );
        for i in 0..n {
            assert_eq!(a.0[i].to_bits(), b.0[i].to_bits());
            assert_eq!(a.1[i].to_bits(), b.1[i].to_bits());
        }
    }

    /// The fused-path f32-only split must produce exactly the
    /// `hi_f32`/`lo_f32` planes of the full split, on every adversarial
    /// input, for both schemes and both dispatch paths.
    fn assert_f32_paths_identical(scheme: SplitScheme, xs: &[f32]) {
        let n = xs.len();
        let mut want_hi = vec![Half::ZERO; n];
        let mut want_lo = vec![Half::ZERO; n];
        let mut want_hf = vec![0f32; n];
        let mut want_lf = vec![0f32; n];
        split_planes_scalar(
            scheme,
            xs,
            &mut want_hi,
            &mut want_lo,
            &mut want_hf,
            &mut want_lf,
        );
        for kernel in [SplitKernel::Auto, SplitKernel::Scalar] {
            let mut hf = vec![0f32; n];
            let mut lf = vec![0f32; n];
            split_planes_f32(kernel, scheme, xs, &mut hf, &mut lf);
            for i in 0..n {
                assert_eq!(
                    hf[i].to_bits(),
                    want_hf[i].to_bits(),
                    "{scheme:?} {kernel:?} hi_f32 diverges for input {:#010x}",
                    xs[i].to_bits()
                );
                assert_eq!(
                    lf[i].to_bits(),
                    want_lf[i].to_bits(),
                    "{scheme:?} {kernel:?} lo_f32 diverges for input {:#010x}",
                    xs[i].to_bits()
                );
            }
        }
    }

    #[test]
    fn f32_only_split_bit_identical_to_full_split() {
        let xs = adversarial_inputs();
        assert_f32_paths_identical(SplitScheme::Round, &xs);
        assert_f32_paths_identical(SplitScheme::Truncate, &xs);
    }

    #[test]
    fn f32_only_split_ragged_tails_every_length() {
        let base = adversarial_inputs();
        for len in 0..=17usize {
            assert_f32_paths_identical(SplitScheme::Round, &base[100..100 + len]);
        }
    }

    #[test]
    fn strided_split_matches_contiguous_at_every_stride() {
        // Strides cover the degenerate contiguous case, the engine's MR,
        // and an odd stride; lengths cover empty, tails, and multi-block.
        let base = adversarial_inputs();
        for scheme in [SplitScheme::Round, SplitScheme::Truncate] {
            for len in [0usize, 1, 7, 8, 9, 16, 23, 64] {
                let xs = &base[200..200 + len];
                let mut want_hf = vec![0f32; len];
                let mut want_lf = vec![0f32; len];
                split_planes_f32(SplitKernel::Scalar, scheme, xs, &mut want_hf, &mut want_lf);
                for stride in [1usize, 3, 4] {
                    for kernel in [SplitKernel::Auto, SplitKernel::Scalar] {
                        let cap = if len == 0 { 0 } else { (len - 1) * stride + 1 };
                        // Poison the gaps so an out-of-lane write shows.
                        let mut hf = vec![f32::NAN; cap];
                        let mut lf = vec![f32::NAN; cap];
                        split_planes_f32_strided(kernel, scheme, xs, &mut hf, &mut lf, stride);
                        for i in 0..len {
                            assert_eq!(
                                hf[i * stride].to_bits(),
                                want_hf[i].to_bits(),
                                "{scheme:?} {kernel:?} stride={stride} hi lane {i}"
                            );
                            assert_eq!(
                                lf[i * stride].to_bits(),
                                want_lf[i].to_bits(),
                                "{scheme:?} {kernel:?} stride={stride} lo lane {i}"
                            );
                        }
                        // Gap positions (non-multiples of the stride)
                        // stay untouched.
                        for pos in 0..cap {
                            if pos % stride != 0 {
                                assert!(hf[pos].is_nan(), "hi gap clobbered at {pos}");
                                assert!(lf[pos].is_nan(), "lo gap clobbered at {pos}");
                            }
                        }
                    }
                }
            }
        }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// A NaN-filled `len`-float window of `buf` that starts on a 64-byte
    /// boundary.
    fn aligned(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
        *buf = vec![f32::NAN; len + LINE - 1];
        let off = buf.as_ptr().align_offset(64);
        &mut buf[off..off + len]
    }

    /// Split a `rows x width` block of `src` (row stride `stride`) with
    /// both kernels into NaN-filled planes whose strips lie a gap line
    /// apart, and check every line against [`split_planes_f32_scalar`]
    /// over its row segment padded with +0.0, and every gap untouched.
    fn assert_strips_match(
        scheme: SplitScheme,
        src: &[f32],
        stride: usize,
        rows: usize,
        width: usize,
    ) {
        let strips = width.div_ceil(LINE);
        let strip_stride = (rows + 1) * LINE;
        for kernel in [SplitKernel::Auto, SplitKernel::Scalar] {
            let (mut hb, mut lb) = (Vec::new(), Vec::new());
            let hi = aligned(&mut hb, strips * strip_stride);
            let lo = aligned(&mut lb, strips * strip_stride);
            split_strips_f32(
                kernel,
                scheme,
                src,
                stride,
                rows,
                width,
                hi,
                lo,
                strip_stride,
            );
            for s in 0..strips {
                let cols = LINE.min(width - s * LINE);
                for r in 0..rows {
                    let seg = &src[r * stride + s * LINE..][..cols];
                    let (mut want_hi, mut want_lo) = ([0f32; LINE], [0f32; LINE]);
                    split_planes_f32_scalar(
                        scheme,
                        seg,
                        &mut want_hi[..cols],
                        &mut want_lo[..cols],
                    );
                    let line = s * strip_stride + r * LINE;
                    for (plane, want) in [(&*hi, want_hi), (&*lo, want_lo)] {
                        assert_eq!(
                            bits(&plane[line..line + LINE]),
                            bits(&want),
                            "{scheme:?} {kernel:?} width {width} strip {s} row {r}: {:08x?}",
                            bits(seg)
                        );
                    }
                }
                let gap = s * strip_stride + rows * LINE..(s + 1) * strip_stride;
                assert!(
                    hi[gap.clone()].iter().chain(&lo[gap]).all(|x| x.is_nan()),
                    "{scheme:?} {kernel:?} width {width}: gap after strip {s} written"
                );
            }
        }
    }

    #[test]
    fn strip_split_bit_identical_on_adversarial_inputs() {
        // Every adversarial input passes through a full strip: rows of
        // three strips back to back, 3032 of them (not a multiple of
        // 16), then the 26 left over as one row with a ragged strip.
        let xs = adversarial_inputs();
        let width = 3 * LINE;
        let rows = xs.len() / width;
        let rest = &xs[rows * width..];
        assert!(!rows.is_multiple_of(LINE) && !rest.len().is_multiple_of(LINE));
        for scheme in [SplitScheme::Round, SplitScheme::Truncate] {
            assert_strips_match(scheme, &xs, width, rows, width);
            assert_strips_match(scheme, rest, rest.len(), 1, rest.len());
        }
    }

    #[test]
    fn strip_split_every_ragged_width_and_depth() {
        // Widths 1..=33 give every ragged last strip alone and after one
        // or two full ones; depths 1, 5, 16, 17 and 23 rows at a row
        // stride 3 wider than the block. The inputs start at the last
        // 40 binary16 NaNs, then the specials, then random words.
        let base = adversarial_inputs();
        let src = &base[(1 << 16) - 40..];
        for scheme in [SplitScheme::Round, SplitScheme::Truncate] {
            for width in 1..=2 * LINE + 1 {
                for rows in [1usize, 5, 16, 17, 23] {
                    assert_strips_match(scheme, src, width + 3, rows, width);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "src too short")]
    fn strip_split_rejects_a_stride_that_overflows() {
        // (rows - 1) * stride wraps to 0 in unchecked arithmetic, which
        // would pass a naive bound and send the streaming path past src.
        let xs = [1.0f32; LINE];
        let (mut hb, mut lb) = (Vec::new(), Vec::new());
        let hi = aligned(&mut hb, 3 * LINE);
        let lo = aligned(&mut lb, 3 * LINE);
        let stride = usize::MAX / 2 + 1;
        split_strips_f32(
            SplitKernel::Auto,
            SplitScheme::Round,
            &xs,
            stride,
            3,
            LINE,
            hi,
            lo,
            3 * LINE,
        );
    }

    #[test]
    #[should_panic(expected = "plane not 64-byte aligned")]
    fn misaligned_strip_plane_rejected() {
        let xs = [1.0f32; LINE];
        let (mut hb, mut lb) = (Vec::new(), Vec::new());
        let hi = aligned(&mut hb, 2 * LINE);
        let lo = aligned(&mut lb, 2 * LINE);
        split_strips_f32(
            SplitKernel::Auto,
            SplitScheme::Round,
            &xs,
            LINE,
            1,
            LINE,
            &mut hi[1..],
            lo,
            LINE,
        );
    }

    #[test]
    #[should_panic(expected = "hi_f32 plane length mismatch")]
    fn strided_outputs_too_short_rejected() {
        let xs = [1.0f32; 4];
        let mut hf = vec![0f32; 9]; // needs (4-1)*4+1 = 13
        let mut lf = vec![0f32; 13];
        split_planes_f32_strided(
            SplitKernel::Auto,
            SplitScheme::Round,
            &xs,
            &mut hf,
            &mut lf,
            4,
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_plane_lengths_rejected() {
        let xs = [1.0f32; 4];
        let mut hi = vec![Half::ZERO; 3];
        let mut lo = vec![Half::ZERO; 4];
        let mut hf = vec![0f32; 4];
        let mut lf = vec![0f32; 4];
        split_planes(
            SplitKernel::Auto,
            SplitScheme::Round,
            &xs,
            &mut hi,
            &mut lo,
            &mut hf,
            &mut lf,
        );
    }
}
