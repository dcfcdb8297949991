//! Runtime x86-64 JIT for shape-specialized microkernels.
//!
//! The interpreted microkernel ([`super::micro`]) is one generic
//! `MR x NR` kernel with runtime branches over the scheme's term list,
//! the chunk grid, and the tile's edge extents. This module compiles a
//! dedicated kernel per *shape class* — `(ISA, term planes, tk, panel
//! depth, valid rows, valid cols)`, where the valid rows also fix how
//! many row blocks a call runs — through a small pipeline:
//!
//! ```text
//! KernelSpec  --ir::lower-->  virtual-register ops
//!             --regalloc-->   ymm/zmm assignment
//!             --x86::emit-->  machine code (+ literal pool)
//!             --exec-->       W^X mmap'd buffer
//! ```
//!
//! The k loop is fully unrolled over the scheme's terms within each
//! `tk` chunk (no per-iteration branching), ragged edge tiles get
//! masked load/store forms instead of the scalar tail, and on
//! AVX-512F machines a kernel covers two adjacent packed B strips and
//! up to two adjacent A row blocks: an 8 x 32 register tile whose 16
//! zmm accumulators live in zmm16-31, so each pair of B loads feeds 16
//! FMAs and each B sliver pair streams from L2 once per 8 output rows.
//! Compiled kernels live in a per-runtime [`KernelCache`] next to the
//! packed-operand cache, compiled exactly once per key.
//!
//! **Each product is one fused multiply-add, and fusing is exact.** The
//! interpreted kernel updates an accumulator with a separate binary32
//! multiply and add; a compiled kernel issues one `vfmadd231ps`, which
//! rounds `acc + a * b` once. The two agree because every value a
//! kernel multiplies is a widened binary16: the scalar split, the SIMD
//! split (`vcvtps2ph` then `vcvtph2ps`) and the packs' zero padding
//! produce nothing else, and [`crate::SplitMatrix`] keeps its planes
//! private. A product of two binary16 values has at most 22
//! significant bits and, unless it is zero, infinite or NaN, a
//! magnitude in [2^-48, 2^32], so the multiply never rounds and the
//! fused and separate forms return the same bits. The output contract:
//! - every non-NaN output is bit-identical to the interpreted kernel
//!   and to [`crate::emulated_gemm_entrywise`];
//! - NaN appears at exactly the oracle's positions;
//! - a NaN's sign and payload are unspecified. FMA returns a
//!   multiplicand's NaN before the accumulator's, and no path promises
//!   the scalar oracle's choice.
//!
//! **The worker's own fallback is the oracle.** Every freshly compiled
//! kernel is replayed against [`super::micro::interpret`], the routine
//! the worker runs for any tile without a kernel, before publication:
//! on a tile of finite binary16 planes (`to_bits` equality) and on a
//! tile of NaN, Inf, ±65504, ±2^-24 and -0 (same bits, or NaN on both
//! sides). A mismatch (an encoder bug, a CPU we mis-detected) poisons
//! that key, and the worker runs that same interpreter for it instead —
//! degraded throughput, never corrupted bits.
//! `EGEMM_JIT=0` disables the whole layer, in which case no executable
//! page is ever mapped ([`exec_mappings`] stays zero — enforced by
//! `tests/jit_gate.rs`).

mod exec;
mod ir;
mod regalloc;
mod x86;

pub use exec::exec_mappings;
pub(crate) use ir::Isa;

use super::cache::lock_unpoisoned;
use super::micro::{self, PlanePair};
use super::pack::{MR, NR};
use crate::envcfg::{self, EnvNum};
use crate::telemetry::hist::LogHistogram;
use crate::telemetry::{self, metrics};
use egemm_fp::{split_planes_f32, Half, SplitKernel, SplitScheme};
use exec::ExecBuf;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock};

/// The argument block a compiled kernel receives (pointer in `rdi`).
/// Only the output row stride is runtime-variable — everything else a
/// kernel needs is baked into its code.
#[repr(C)]
pub(crate) struct KernelArgs {
    pub a_hi: *const f32,
    pub a_lo: *const f32,
    pub b_hi: *const f32,
    pub b_lo: *const f32,
    pub out: *mut f32,
    /// Output row stride in elements.
    pub n: usize,
}

/// Entry point of a compiled kernel.
pub(crate) type KernelFn = unsafe extern "sysv64" fn(*const KernelArgs);

/// Everything a kernel is specialized on, packed for cheap hashing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct KernelKey {
    isa: Isa,
    /// Term planes, 2 bits each: bit `2i` = a_lo, bit `2i+1` = b_lo.
    terms: u8,
    nterms: u8,
    tk: u16,
    kcb: u16,
    rows: u8,
    cols: u8,
}

impl KernelKey {
    /// Build a key, or `None` when this shape is outside what the
    /// emitter specializes (huge `tk` would bloat the unrolled body;
    /// `kcb` beyond `u16` would overflow baked displacements) — the
    /// caller then uses the interpreted kernel.
    pub(crate) fn new(
        isa: Isa,
        terms: &[(bool, bool)],
        tk: usize,
        kcb: usize,
        rows: usize,
        cols: usize,
    ) -> Option<KernelKey> {
        if terms.is_empty() || terms.len() > 4 {
            return None;
        }
        if tk == 0 || tk > 64 || kcb == 0 || kcb > u16::MAX as usize {
            return None;
        }
        if rows == 0 || rows > isa.blocks() * MR || cols == 0 || cols > isa.strips() * NR {
            return None;
        }
        let mut code = 0u8;
        for (i, &(a_lo, b_lo)) in terms.iter().enumerate() {
            code |= (a_lo as u8) << (2 * i);
            code |= (b_lo as u8) << (2 * i + 1);
        }
        Some(KernelKey {
            isa,
            terms: code,
            nterms: terms.len() as u8,
            tk: tk as u16,
            kcb: kcb as u16,
            rows: rows as u8,
            cols: cols as u8,
        })
    }

    fn spec(&self) -> ir::KernelSpec {
        let terms = (0..self.nterms as usize)
            .map(|i| {
                (
                    (self.terms >> (2 * i)) & 1 == 1,
                    (self.terms >> (2 * i + 1)) & 1 == 1,
                )
            })
            .collect();
        ir::KernelSpec {
            isa: self.isa,
            terms,
            tk: self.tk as usize,
            kcb: self.kcb as usize,
            rows: self.rows as usize,
            cols: self.cols as usize,
        }
    }
}

/// Best kernel ISA this machine supports, `None` where the emitter has
/// no backend. Both backends emit `vfmadd231ps`, so both need FMA: an
/// AVX host without it (pre-2013 parts) runs the interpreter, and
/// every AVX-512F part has it. AVX-512F implies the AVX forms
/// single-strip kernels use, so `Avx512` means *both* shapes are
/// available.
pub(crate) fn supported_isa() -> Option<Isa> {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    {
        if !std::arch::is_x86_feature_detected!("fma") {
            return None;
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            return Some(Isa::Avx512);
        }
        if std::arch::is_x86_feature_detected!("avx") {
            return Some(Isa::Avx);
        }
        None
    }
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
    {
        None
    }
}

/// `EGEMM_JIT` knob: unset or nonzero enables, `0` disables, garbage
/// warns once and keeps the default (on).
pub(crate) fn env_enabled() -> bool {
    static RESOLVED: OnceLock<bool> = OnceLock::new();
    static WARN: Once = Once::new();
    *RESOLVED.get_or_init(|| match envcfg::read_usize("EGEMM_JIT") {
        EnvNum::Unset => true,
        EnvNum::Parsed(v, _) => v != 0,
        EnvNum::Garbage(raw) => {
            envcfg::warn_once(&WARN, || {
                format!("egemm: ignoring unparsable EGEMM_JIT={raw:?}; JIT stays enabled")
            });
            true
        }
    })
}

/// Whether engine calls on this process run JIT-compiled kernels: the
/// `EGEMM_JIT` knob is on and the machine has a supported backend.
pub fn available() -> bool {
    env_enabled() && supported_isa().is_some()
}

/// One published kernel: the executable mapping plus its entry.
struct CompiledKernel {
    /// Keeps the mapping alive for as long as the cache entry exists;
    /// entries are never evicted, so `entry` stays valid for the
    /// lifetime of the owning [`KernelCache`].
    _buf: ExecBuf,
    entry: KernelFn,
}

/// Fingerprint-keyed table of compiled kernels plus its counters, one
/// per [`super::EngineRuntime`] beside the packed-operand cache. A
/// `None` slot records a key whose compile or verification failed —
/// those fall back to the interpreted kernel forever instead of
/// recompiling every call.
pub(crate) struct KernelCache {
    isa: Option<Isa>,
    kernels: Mutex<HashMap<KernelKey, Option<CompiledKernel>>>,
    compiles: AtomicU64,
    hits: AtomicU64,
    compile_ns: AtomicU64,
    code_bytes: AtomicU64,
    /// The process-wide `egemm_jit_compile_ns` histogram: the one JIT
    /// series no runtime owns, since the counters above hold totals,
    /// not the distribution.
    compile_hist: &'static LogHistogram,
}

impl KernelCache {
    /// A cache for this process's capabilities. Registers the compile
    /// time histogram eagerly so the exposition carries it (at zero)
    /// even on hosts where no kernel ever compiles.
    pub(crate) fn new() -> KernelCache {
        KernelCache {
            isa: if env_enabled() { supported_isa() } else { None },
            kernels: Mutex::new(HashMap::new()),
            compiles: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            compile_ns: AtomicU64::new(0),
            code_bytes: AtomicU64::new(0),
            compile_hist: metrics::histogram("egemm_jit_compile_ns"),
        }
    }

    /// The ISA kernels are emitted for, `None` when the JIT is off for
    /// this process (env knob or unsupported machine).
    pub(crate) fn isa(&self) -> Option<Isa> {
        self.isa
    }

    /// Look up (or compile, verify, and publish) the kernel for `key`.
    /// `None` means this key is served by the interpreted kernel.
    /// Compilation happens under the table lock, so each key compiles
    /// exactly once per runtime no matter how many workers race here.
    pub(crate) fn get(&self, key: KernelKey) -> Option<KernelFn> {
        self.isa?;
        let mut map = lock_unpoisoned(&self.kernels);
        if let Some(slot) = map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return slot.as_ref().map(|k| k.entry);
        }
        let span = telemetry::span_start();
        let t0 = std::time::Instant::now();
        let compiled = compile(&key);
        let ns = t0.elapsed().as_nanos() as u64;
        self.compiles.fetch_add(1, Ordering::Relaxed);
        self.compile_ns.fetch_add(ns, Ordering::Relaxed);
        let bytes = compiled.as_ref().map_or(0, |k| k._buf.len() as u64);
        self.code_bytes.fetch_add(bytes, Ordering::Relaxed);
        telemetry::span_end(telemetry::Phase::JitCompile, span, bytes);
        self.compile_hist.observe(ns);
        let entry = compiled.as_ref().map(|k| k.entry);
        map.insert(key, compiled);
        entry
    }

    /// Merge this cache's counters into a [`super::CacheStats`]
    /// snapshot.
    pub(crate) fn fill_stats(&self, s: &mut super::CacheStats) {
        s.jit_compiles = self.compiles.load(Ordering::Relaxed);
        s.jit_hits = self.hits.load(Ordering::Relaxed);
        s.jit_compile_ns = self.compile_ns.load(Ordering::Relaxed);
        s.jit_code_bytes = self.code_bytes.load(Ordering::Relaxed);
    }
}

/// Per-worker memo over [`KernelCache::get`]: a tiny linear-scan table
/// (a handful of keys per call) that keeps the hot tile loop off the
/// shared mutex.
#[derive(Default)]
pub(crate) struct KernelMemo {
    entries: Vec<(KernelKey, Option<KernelFn>)>,
}

impl KernelMemo {
    pub(crate) fn get(&mut self, cache: &KernelCache, key: KernelKey) -> Option<KernelFn> {
        if let Some((_, f)) = self.entries.iter().find(|(k, _)| *k == key) {
            return *f;
        }
        let f = cache.get(key);
        self.entries.push((key, f));
        f
    }
}

/// Invoke a compiled kernel on one tile.
///
/// # Safety
/// `f` must have been compiled for exactly this call's shape class
/// (same terms/tk/kcb/rows/cols as the [`KernelKey`] it was cached
/// under), the plane slices must hold the packed slivers that key's
/// kernel expects (`rows.div_ceil(MR)` consecutive `kcb x MR` slivers
/// per used A plane, `strips x kcb x NR` per used B plane), and
/// `out`/`n` must describe a region where `rows x cols` elements at
/// the row stride `n` (up to 8 rows) are valid for read/write with no
/// concurrent access by other threads.
#[inline]
pub(crate) unsafe fn call(
    f: KernelFn,
    a: PlanePair<'_>,
    b: PlanePair<'_>,
    out: *mut f32,
    n: usize,
) {
    let args = KernelArgs {
        a_hi: a.hi.as_ptr(),
        a_lo: a.lo.as_ptr(),
        b_hi: b.hi.as_ptr(),
        b_lo: b.lo.as_ptr(),
        out,
        n,
    };
    f(&args)
}

/// Compile and verify one kernel. `None` on any failure: allocation,
/// publication, or — the load-bearing gate — disagreement with the
/// interpreted kernel on a synthetic tile.
fn compile(key: &KernelKey) -> Option<CompiledKernel> {
    let spec = key.spec();
    let prog = ir::lower(&spec);
    let alloc = regalloc::allocate(&prog)?;
    let code = x86::emit(&prog, &alloc);
    let buf = ExecBuf::publish(&code)?;
    // SAFETY: the buffer holds a complete function emitted for the
    // sysv64 kernel ABI (see x86.rs); transmuting its entry to
    // KernelFn is the contract of that emitter.
    let entry: KernelFn = unsafe { std::mem::transmute(buf.entry()) };
    if !verify(&spec, entry) {
        return None;
    }
    Some(CompiledKernel { _buf: buf, entry })
}

/// One step of the deterministic LCG behind verification tiles: 24
/// fresh bits.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 40
}

/// Deterministic value stream for verification tiles, in [-0.5, 0.5).
fn fill(state: &mut u64, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| lcg(state) as f32 / (1u64 << 24) as f32 - 0.5)
        .collect()
}

/// [`fill`] rounded to binary16 and widened back, the only plane data
/// the engine feeds a kernel. The hi plane of a round split is
/// `Half::from_f32(x).to_f32()` bit for bit, and its SIMD path keeps
/// the rounding from dominating the compile of a deep kernel, as the
/// scalar conversion would.
fn fill_half(state: &mut u64, len: usize) -> Vec<f32> {
    let xs = fill(state, len);
    let (mut hi, mut lo) = (vec![0f32; len], vec![0f32; len]);
    split_planes_f32(SplitKernel::Auto, SplitScheme::Round, &xs, &mut hi, &mut lo);
    hi
}

/// Plane values at the edges of the exactness argument, as binary16
/// bits: a NaN with a payload, +Inf, -Inf, ±65504 (products near
/// 2^32), ±2^-24 (products down to 2^-48) and -0. The non-finite ones
/// come first: [`Tile::with_specials`] plants entry `j < 3` in A row
/// `j` and B column `j`.
const PLANE_SPECIALS: [u16; 8] = [
    0x7e55, 0x7c00, 0xfc00, 0x7bff, 0xfbff, 0x0001, 0x8001, 0x8000,
];

/// C values outside the plane domain: a NaN with a payload, ±Inf and
/// the smallest binary32 subnormal.
const C_SPECIALS: [u32; 4] = [0xffc0_4567, 0x7f80_0000, 0xff80_0000, 0x0000_0001];

/// The operand planes and the `blocks·MR x n` output buffer of one
/// verification replay, `blocks` being the ISA's row-block count.
#[derive(Clone)]
struct Tile {
    a_hi: Vec<f32>,
    a_lo: Vec<f32>,
    b_hi: Vec<f32>,
    b_lo: Vec<f32>,
    out: Vec<f32>,
}

impl Tile {
    /// Finite binary16 planes and arbitrary binary32 C. A kernel of
    /// fewer blocks than the ISA runs must leave the rows past its own
    /// untouched, which the whole-buffer comparison checks.
    fn finite(spec: &ir::KernelSpec, n: usize, seed: &mut u64) -> Tile {
        let a_len = spec.isa.blocks() * spec.kcb * MR;
        let b_len = spec.isa.strips() * spec.kcb * NR;
        Tile {
            a_hi: fill_half(seed, a_len),
            a_lo: fill_half(seed, a_len),
            b_hi: fill_half(seed, b_len),
            b_lo: fill_half(seed, b_len),
            out: fill(seed, spec.isa.blocks() * MR * n),
        }
    }

    /// This tile with every [`PLANE_SPECIALS`] entry planted at one k
    /// step in all four planes, so the A and B copies meet in one
    /// product (65504^2, 2^-48, Inf * x). NaN and Inf poison a whole
    /// output row and column, so they take fixed rows and columns
    /// `0..3`, which leaves the rest of a full tile finite. The finite
    /// ones land on any valid row, so a second row block's
    /// displacements meet them too. Each [`C_SPECIALS`] entry lands on
    /// a valid output.
    fn with_specials(&self, spec: &ir::KernelSpec, n: usize, seed: &mut u64) -> Tile {
        let mut t = self.clone();
        let mut draw = |bound: usize| lcg(seed) as usize % bound;
        for (j, &h) in PLANE_SPECIALS.iter().enumerate() {
            let v = Half::from_bits(h).to_f32();
            let k = draw(spec.kcb);
            let (r, c) = if v.is_finite() {
                (draw(spec.rows), draw(spec.isa.strips() * NR))
            } else {
                (j, j)
            };
            let a = (r / MR * spec.kcb + k) * MR + r % MR;
            t.a_hi[a] = v;
            t.a_lo[a] = v;
            let b = (c / NR * spec.kcb + k) * NR + c % NR;
            t.b_hi[b] = v;
            t.b_lo[b] = v;
        }
        for &bits in &C_SPECIALS {
            let i = draw(spec.rows) * n + draw(spec.cols);
            t.out[i] = f32::from_bits(bits);
        }
        t
    }

    /// Whether `entry` reproduces [`micro::interpret`], the worker's
    /// fallback for this tile, over the whole output buffer under `eq`.
    fn agrees(
        &self,
        spec: &ir::KernelSpec,
        entry: KernelFn,
        n: usize,
        eq: fn(f32, f32) -> bool,
    ) -> bool {
        let (mut got, mut want) = (self.out.clone(), self.out.clone());
        // Both planes of each operand, as the worker passes them.
        let a = PlanePair {
            hi: &self.a_hi,
            lo: &self.a_lo,
        };
        let b = PlanePair {
            hi: &self.b_hi,
            lo: &self.b_lo,
        };
        let (rows, cols, kcb, tk) = (spec.rows, spec.cols, spec.kcb, spec.tk);
        // SAFETY: the kernel was emitted for exactly this spec; the A
        // planes hold `isa.blocks()` packed slivers and the B planes
        // `strips`; `got` and `want` are `isa.blocks()·MR x n` buffers
        // with rows <= isa.blocks()·MR and cols < n.
        unsafe {
            call(entry, a, b, got.as_mut_ptr(), n);
            micro::interpret(want.as_mut_ptr(), n, rows, cols, a, b, kcb, tk, &spec.terms);
        }
        got.iter().zip(&want).all(|(&x, &y)| eq(x, y))
    }
}

/// Replay a freshly compiled kernel against [`micro::interpret`]
/// on two synthetic tiles with a non-trivial row stride, every term
/// plane populated and padded lanes seeded with sentinels, comparing
/// the whole output buffer, including the lanes the kernel must *not*
/// touch:
/// - [`Tile::finite`], with `to_bits` equality;
/// - the same tile [`Tile::with_specials`], with the same bits or NaN
///   on both sides (the output contract's NaN clause).
fn verify(spec: &ir::KernelSpec, entry: KernelFn) -> bool {
    let n = spec.cols + 3; // stride != cols exercises the row addressing
    let mut seed = 0x9E3779B97F4A7C15u64 ^ ((spec.kcb as u64) << 32 | spec.cols as u64);
    let finite = Tile::finite(spec, n, &mut seed);
    let specials = finite.with_specials(spec, n, &mut seed);
    finite.agrees(spec, entry, n, |x, y| x.to_bits() == y.to_bits())
        && specials.agrees(spec, entry, n, |x, y| {
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    impl KernelCache {
        /// Every key this cache has looked up, compiled or poisoned.
        pub(crate) fn keys(&self) -> Vec<KernelKey> {
            lock_unpoisoned(&self.kernels).keys().copied().collect()
        }
    }

    const TERM_SETS: [&[(bool, bool)]; 4] = [
        &[(false, false)],
        &[(false, false), (true, false), (false, true)],
        &[(false, false), (true, false), (false, true), (true, true)],
        &[(true, true), (false, false)],
    ];

    fn isas() -> Vec<Isa> {
        match supported_isa() {
            Some(Isa::Avx512) => vec![Isa::Avx, Isa::Avx512],
            Some(Isa::Avx) => vec![Isa::Avx],
            None => vec![],
        }
    }

    /// The whole pipeline, adversarially: every term set, ragged and
    /// full edges, short and ragged panels — each compiled kernel must
    /// survive the verify gate (which is itself a bit-exact replay
    /// against the interpreted kernel).
    #[test]
    fn compiled_kernels_verify_against_interpreter() {
        let mut checked = 0;
        for isa in isas() {
            let cols_cases: Vec<usize> = match isa {
                Isa::Avx => vec![16, 8, 11, 5, 1],
                Isa::Avx512 => vec![32, 23, 17, 31],
            };
            for terms in TERM_SETS {
                for &(tk, kcb) in &[(8usize, 24usize), (8, 5), (8, 8), (4, 19), (16, 40)] {
                    // Every row residue of one block and, under AVX-512,
                    // of two.
                    for rows in 1..=isa.blocks() * MR {
                        for &cols in &cols_cases {
                            let key = KernelKey::new(isa, terms, tk, kcb, rows, cols)
                                .expect("in-range key");
                            assert!(
                                compile(&key).is_some(),
                                "compile+verify failed: {isa:?} terms={terms:?} \
                                 tk={tk} kcb={kcb} rows={rows} cols={cols}"
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
        // On a machine with no backend there is nothing to check.
        if supported_isa().is_some() {
            assert!(checked > 0);
        }
    }

    #[test]
    fn key_roundtrips_terms_and_rejects_out_of_range() {
        let terms = [(false, true), (true, false), (true, true)];
        let key = KernelKey::new(Isa::Avx, &terms, 8, 100, 3, 12).unwrap();
        assert_eq!(key.spec().terms, terms.to_vec());
        assert_eq!(key.spec().kcb, 100);
        assert!(KernelKey::new(Isa::Avx, &terms, 0, 8, 4, 16).is_none());
        assert!(KernelKey::new(Isa::Avx, &terms, 8, 8, 4, 17).is_none());
        assert!(KernelKey::new(Isa::Avx512, &terms, 8, 8, 4, 33).is_none());
        // Two row blocks under AVX-512, one under AVX.
        assert_eq!(
            KernelKey::new(Isa::Avx512, &terms, 8, 8, 8, 32)
                .unwrap()
                .spec()
                .rows,
            8
        );
        assert!(KernelKey::new(Isa::Avx512, &terms, 8, 8, 9, 32).is_none());
        assert!(KernelKey::new(Isa::Avx, &terms, 8, 8, 5, 16).is_none());
        assert!(KernelKey::new(Isa::Avx, &terms, 8, 1 << 17, 4, 16).is_none());
        assert!(KernelKey::new(Isa::Avx, &[], 8, 8, 4, 16).is_none());
    }

    #[test]
    fn cache_compiles_once_and_counts_hits() {
        let cache = KernelCache::new();
        if cache.isa().is_none() {
            return; // nothing to exercise on this host
        }
        let isa = Isa::Avx; // single-strip kernels exist on every backend
        let key = KernelKey::new(isa, TERM_SETS[1], 8, 16, 4, 16).unwrap();
        let f1 = cache.get(key).expect("first get compiles");
        let f2 = cache.get(key).expect("second get hits");
        assert_eq!(f1 as usize, f2 as usize, "hit must return the same code");
        let mut s = super::super::CacheStats::default();
        cache.fill_stats(&mut s);
        assert_eq!(s.jit_compiles, 1, "exactly one compile per key");
        assert_eq!(s.jit_hits, 1);
        assert!(s.jit_code_bytes > 0 && s.jit_compile_ns > 0);

        let mut memo = KernelMemo::default();
        assert!(memo.get(&cache, key).is_some()); // shared hit
        assert!(memo.get(&cache, key).is_some()); // memo hit
        cache.fill_stats(&mut s);
        assert_eq!(s.jit_hits, 2, "memo must absorb repeat lookups");
    }
}
