//! Blocked pack-and-tile execution engine for the emulated GEMM.
//!
//! A BLIS-style engine: the output is cut into `mc x nc` macro-tiles, each
//! tile walks the reduction in `kc`-deep panels whose hi/lo operand
//! planes are packed into contiguous, cache-resident slivers, and a
//! register-tiled microkernel keeps its accumulator tile in registers
//! for a whole panel: `MR x NR` (4 x 16, eight ymm accumulators) under
//! AVX and the interpreter, two row blocks by two strips (8 x 32,
//! sixteen zmm accumulators) in the AVX-512 JIT's kernels. Workers
//! claim macro-tiles from the 2D grid through a locality-aware
//! work-stealing scheduler (`sched`): each
//! worker owns a contiguous column-major run (all row tiles of a jc
//! column block before the next block, so the B panel it just touched
//! stays hot) and idle workers steal half-ranges from the most-loaded
//! victim, so skewed shapes (m = 64, n = k = 4096) parallelize across
//! column tiles where whole-row partitioning would idle every core but
//! four. B is packed whole before the tile grid starts, one k panel per
//! claim on the same pool, so every tile reads its B slivers from one
//! prepared operand and no tile packs B.
//!
//! The engine is numerically *invisible*: per output element it replays
//! exactly the profiled Tensor-Core accumulation order — ascending k in
//! `tk`-sized chunks, the scheme's terms in issue order within a chunk,
//! one binary32 multiply and add per product. The JIT's kernels fuse
//! that pair into one FMA, which rounds the same way because every
//! multiplicand is a widened binary16 and every such product is exact
//! in binary32. Blocking over i/j
//! only reorders *which elements* are computed when, never the value
//! stream within one element. Blocking over k is only legal because `kc`
//! is forced to a multiple of `tk` (panel seams land on chunk
//! boundaries) and the partial accumulator is carried through the output
//! buffer in binary32 — a lossless round-trip. Every non-NaN output is
//! therefore bit-identical to [`crate::emulated_gemm_entrywise`], and
//! NaN appears at exactly the oracle's positions; a NaN's sign and
//! payload are unspecified (the `jit` module doc gives the argument).
//! The proptest suite in `tests/prop_engine.rs` enforces that with
//! `to_bits` equality, and its special-values test checks the NaN
//! clause.
//!
//! The public surface is one plan and one executor: a [`GemmPlan`]
//! names the operands (A as raw f32; B as a [`PreparedOperand`]), an
//! optional C, an optional row sample and k slice, and the scheme/chunk
//! depth/blocking; [`execute`] validates the whole plan before any
//! compute and runs it. A B is prepared one of two ways: [`prepare_b`]
//! packs raw f32 through the runtime's content-addressed cache, and
//! [`prepare_b_rows`] packs a row range of raw f32 past it (a split-K
//! slice, or a B used once). Both split B while they pack it, and each
//! tile's pack splits its rows of A on the fly, so no split matrix is
//! ever materialized. Batched and split-K calls hand `execute_all`
//! several plans of one output shape, and their tile grids run as one
//! grid on the runtime's pool, so every call runs at the runtime's
//! width.

mod cache;
pub(crate) mod jit;
mod micro;
mod pack;
pub mod runtime;
mod sched;

use crate::emulation::EmulationScheme;
use crate::telemetry;
pub use cache::fingerprint as content_fingerprint;
use egemm_fp::{SplitKernel, SplitScheme};
use egemm_matrix::Matrix;
pub use jit::{available as jit_available, exec_mappings as jit_exec_mappings};
use micro::PlanePair;
use pack::{pack_a_fused, BRows, MR, NR};
pub use runtime::{CacheStats, EngineRuntime, PreparedOperand, RuntimeConfig};
pub use sched::SchedStats;
use sched::{Claim, TileScheduler};
use std::ops::Range;

/// Cache-blocking parameters of the execution engine. The worker count
/// is the runtime's ([`RuntimeConfig::threads`]), capped by the tile
/// count.
///
/// Defaults target a generic x86 cache hierarchy: a `kc x NR` B sliver
/// (16 KiB per plane at the default `kc` of 256, 32 KiB for both) lives
/// in L1 across a row block, the packed A block (2 planes x `mc x kc` =
/// 128 KiB) in L2, and the B panel in outer cache. The AVX-512 kernels
/// read a strip pair's sliver, 64 KiB for both planes, which exceeds a
/// 48 KiB L1d, so they stream it from L2. All sizes are clamped to
/// legal values at run time (`kc` to a multiple of the chunk depth
/// `tk`, `mc`/`nc` to at least one register tile), so any configuration
/// computes correct — and bit-identical — results; only throughput
/// varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Output rows per macro-tile.
    pub mc: usize,
    /// Output columns per macro-tile.
    pub nc: usize,
    /// Reduction depth per packed panel (rounded down to a `tk`
    /// multiple, up to at least one chunk).
    pub kc: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            mc: 64,
            nc: 256,
            kc: 256,
        }
    }
}

/// Clamp a requested panel depth to the chunk grid: a positive multiple
/// of `tk`, so panel seams land on chunk boundaries. Shared by execution
/// and operand preparation so a prepacked B always matches the blocking
/// the engine will run.
pub(crate) fn clamp_kc(kc: usize, tk: usize) -> usize {
    (kc.max(tk) / tk) * tk
}

/// One emulated GEMM `D = A·B (+ C)` with the accumulation semantics of
/// [`crate::emulated_gemm_tk`]: per output element, ascending k in
/// `tk`-sized chunks, the scheme's terms in issue order per chunk. A is
/// raw f32, split per tile while it is packed.
///
/// `rows` computes only the listed A rows (strictly ascending; the
/// output is `rows.len() x n`, bit-identical to those rows of the full
/// product). `k_range` computes the split-K partial over `[k_lo, k_hi)`
/// with chunking restarted at `k_lo`, and B holds exactly the rows of
/// that range. `c`, when present, seeds the accumulator and must match
/// the output shape. B's panel depth must match `clamp(cfg.kc, tk)`.
#[derive(Debug, Clone)]
pub struct GemmPlan<'a> {
    pub a: &'a Matrix<f32>,
    pub b: &'a PreparedOperand,
    pub c: Option<&'a Matrix<f32>>,
    pub rows: Option<&'a [usize]>,
    pub k_range: Option<Range<usize>>,
    pub scheme: EmulationScheme,
    pub tk: usize,
    pub cfg: EngineConfig,
}

impl<'a> GemmPlan<'a> {
    /// The full product `A·B`: no C, every row, the whole reduction.
    pub fn new(
        a: &'a Matrix<f32>,
        b: &'a PreparedOperand,
        scheme: EmulationScheme,
        tk: usize,
        cfg: EngineConfig,
    ) -> GemmPlan<'a> {
        GemmPlan {
            a,
            b,
            c: None,
            rows: None,
            k_range: None,
            scheme,
            tk,
            cfg,
        }
    }

    /// Check the whole plan and resolve the output shape and k slice.
    /// Runs before any compute, so a bad plan never does partial work.
    fn validate(&self) -> (usize, usize, Range<usize>) {
        let (a_rows, k) = (self.a.rows(), self.a.cols());
        let n = self.b.cols();
        let ks = self.k_range.clone().unwrap_or(0..k);
        assert!(
            ks.start <= ks.end && ks.end <= k,
            "k range [{}, {}) out of bounds",
            ks.start,
            ks.end
        );
        assert_eq!(ks.len(), self.b.rows(), "inner dimensions disagree");
        assert_eq!(
            self.b.scheme(),
            self.scheme.split_scheme(),
            "B split scheme mismatch"
        );
        assert!(self.tk > 0, "tk must be positive");
        if let Some(rows) = self.rows {
            for (pos, &r) in rows.iter().enumerate() {
                assert!(
                    r < a_rows,
                    "sampled row {r} (position {pos}) out of range: A has {a_rows} rows"
                );
                if pos > 0 {
                    assert!(
                        rows[pos - 1] < r,
                        "sampled rows must be strictly ascending: rows[{}] = {} precedes {r}",
                        pos - 1,
                        rows[pos - 1]
                    );
                }
            }
        }
        let m_out = self.rows.map_or(a_rows, <[usize]>::len);
        if let Some(c0) = self.c {
            assert_eq!((c0.rows(), c0.cols()), (m_out, n), "C shape");
        }
        assert_eq!(
            self.b.packed.kc(),
            clamp_kc(self.cfg.kc, self.tk),
            "prepacked panel depth disagrees with the blocking in effect"
        );
        (m_out, n, ks)
    }
}

/// Pack `src`'s B panels straight from the raw f32 data through `rt`'s
/// cache, as the B of plans over its whole depth under the same
/// `tk`/`cfg` blocking. A cache hit skips the pack; the returned handle
/// pins the panels independently of eviction.
pub fn prepare_b(
    rt: &EngineRuntime,
    src: &Matrix<f32>,
    scheme: SplitScheme,
    tk: usize,
    cfg: EngineConfig,
) -> PreparedOperand {
    assert!(tk > 0, "tk must be positive");
    rt.prepare_b(src, scheme, clamp_kc(cfg.kc, tk))
}

/// Pack rows `rows` of the raw `src` as the B of a plan whose k range is
/// `rows` (a split-K slice), past the cache. The rows are a view of
/// `src`, so nothing is copied before the pack.
///
/// # Panics
/// If `tk` is zero or `rows` is out of bounds.
pub fn prepare_b_rows(
    rt: &EngineRuntime,
    src: &Matrix<f32>,
    rows: Range<usize>,
    scheme: SplitScheme,
    tk: usize,
    cfg: EngineConfig,
) -> PreparedOperand {
    let mut prepared = prepare_b_slices(rt, src, &[rows], scheme, tk, cfg);
    prepared.pop().expect("one slice, one prepared B")
}

/// [`prepare_b_rows`] of every range in `slices`, with the panels of
/// all of them in one claim list.
pub(crate) fn prepare_b_slices(
    rt: &EngineRuntime,
    src: &Matrix<f32>,
    slices: &[Range<usize>],
    scheme: SplitScheme,
    tk: usize,
    cfg: EngineConfig,
) -> Vec<PreparedOperand> {
    assert!(tk > 0, "tk must be positive");
    let views: Vec<_> = slices.iter().map(|r| BRows::raw(src, r.clone())).collect();
    rt.prepare_uncached(&views, scheme, clamp_kc(cfg.kc, tk))
}

/// One plan's output buffer, handed to workers as a raw pointer; tiles
/// are disjoint by construction, so concurrent writes never overlap.
struct SharedOut(*mut f32);
// SAFETY: the pointer is only dereferenced inside `execute_all`'s
// dispatch, which outlives every worker, and each worker writes only the
// disjoint tile regions it claimed from the scheduler.
unsafe impl Send for SharedOut {}
// SAFETY: as above — shared access never produces overlapping writes.
unsafe impl Sync for SharedOut {}

/// Run `plan` on `rt`'s pool and return `D`.
///
/// # Panics
/// Before any compute, if the plan is invalid: operand or C shapes
/// disagree (B's depth must equal the k range's length), B was prepared
/// under another split scheme than the plan's, `tk` is zero, a sampled
/// row is out of range or out of order, the k range is out of bounds,
/// or B was packed at another `kc`.
pub fn execute(rt: &EngineRuntime, plan: &GemmPlan<'_>) -> Matrix<f32> {
    let mut d = execute_all(rt, std::slice::from_ref(plan));
    d.pop().expect("one plan, one output")
}

/// Run `plans` as one tile grid on `rt`'s pool and return each plan's
/// `D`, in order. The grid is plan-major: global tile `t` is tile
/// `t % per_plan` of plan `t / per_plan`, each plan's tiles in
/// column-major order. This is the one launch the timing model costs
/// for a batch or a split-K call.
///
/// # Panics
/// Before any compute, if any plan is invalid (see [`execute`]) or the
/// plans disagree on output shape, scheme, `tk` or blocking.
pub(crate) fn execute_all(rt: &EngineRuntime, plans: &[GemmPlan<'_>]) -> Vec<Matrix<f32>> {
    let checked: Vec<_> = plans.iter().map(GemmPlan::validate).collect();
    let Some(first) = plans.first() else {
        return Vec::new();
    };
    let (m_out, n, _) = checked[0];
    assert!(
        plans.iter().zip(&checked).all(|(p, &(pm, pn, _))| {
            (pm, pn, p.scheme, p.tk, p.cfg) == (m_out, n, first.scheme, first.tk, first.cfg)
        }),
        "plans of one dispatch must share output shape, scheme, tk and blocking"
    );
    let mut outs: Vec<Matrix<f32>> = plans
        .iter()
        .map(|p| match p.c {
            Some(c0) => c0.clone(),
            None => Matrix::zeros(m_out, n),
        })
        .collect();
    if m_out == 0 || n == 0 || checked.iter().all(|(_, _, ks)| ks.is_empty()) {
        return outs; // nothing to accumulate; outs already hold C (or zeros)
    }
    // Clamp the blocking to legal values: kc on the chunk grid, mc to at
    // least one register tile, nc to a positive multiple of NR so every
    // macro-tile's column origin is strip-aligned (which is what lets a
    // whole-operand B pack serve any tile). Tiling bounds never affect
    // output bits — only which elements are computed when.
    let kc = clamp_kc(first.cfg.kc, first.tk);
    let mc = first.cfg.mc.max(MR);
    let nc = first.cfg.nc.div_ceil(NR).max(1) * NR;
    let tiles_m = m_out.div_ceil(mc);
    let tiles_n = n.div_ceil(nc);
    let per_plan = tiles_m * tiles_n;
    let n_tiles = per_plan * plans.len();
    let threads = rt.default_threads().min(n_tiles).max(1);

    // Within a plan, tiles are linearized column-major (t = jc_idx *
    // tiles_m + ic_idx), so each worker's contiguous initial range walks
    // all row tiles of one jc column block before advancing — the B
    // slivers of that block stay hot across the whole run.
    let sched = TileScheduler::new(n_tiles, threads);
    // A worker's A scratch holds the largest block it packs: at most
    // `mc` of the output's rows, at most `kc` of the longest k range.
    let k_max = checked.iter().map(|(_, _, ks)| ks.len()).max().unwrap_or(0);
    let a_cap = mc.min(m_out).div_ceil(MR) * MR * kc.min(k_max);
    let jobs: Vec<PlanJob> = outs
        .iter_mut()
        .zip(checked)
        .map(|(out, (_, _, ks))| PlanJob {
            out: SharedOut(out.as_mut_slice().as_mut_ptr()),
            ks,
        })
        .collect();
    let ctx = WorkerCtx {
        m_out,
        n,
        mc,
        nc,
        kc,
        a_cap,
        tiles_m,
        per_plan,
    };
    rt.run_parallel(threads, &|| worker(&ctx, plans, &jobs, &sched, rt));
    outs
}

/// Geometry shared by all workers of one dispatch.
struct WorkerCtx {
    m_out: usize,
    n: usize,
    mc: usize,
    nc: usize,
    kc: usize,
    /// Floats in each plane of a worker's A scratch.
    a_cap: usize,
    tiles_m: usize,
    /// Tiles per plan (`tiles_m x tiles_n`).
    per_plan: usize,
}

/// What one plan of a dispatch owns: its output buffer and its k slice.
struct PlanJob {
    out: SharedOut,
    ks: Range<usize>,
}

fn worker(
    ctx: &WorkerCtx,
    plans: &[GemmPlan<'_>],
    jobs: &[PlanJob],
    sched: &TileScheduler,
    rt: &EngineRuntime,
) {
    // Scheme, tk and blocking are shared by every plan of the dispatch.
    let (scheme, tk) = (plans[0].scheme, plans[0].tk);
    let terms = scheme.terms();
    let split_scheme = scheme.split_scheme();
    // Per-worker A pack scratch, reused across tiles and panels. The
    // fused pack emits both planes (the split computes them together);
    // the microkernel reads only the ones the scheme's terms name. B
    // slivers are read straight from each plan's prepared operand.
    let mut a_hi = vec![0f32; ctx.a_cap];
    let mut a_lo = vec![0f32; ctx.a_cap];
    let mut rowbuf: Vec<usize> = Vec::with_capacity(ctx.mc.min(ctx.m_out));
    let counters = rt.sched_counters();
    // JIT dispatch state: the runtime's compiled-kernel cache (absent
    // when `EGEMM_JIT=0` or the machine has no backend) plus a
    // per-worker memo that keeps the tile loop off the cache mutex.
    let jit_active = rt.jit_cache();
    let mut jit_memo = jit::KernelMemo::default();
    let me = sched.join();

    // One Worker span covers this thread's whole participation (claim
    // loop entry to exhaustion); nested spans time each pack and each
    // panel's compute. Span starts are 0 — and ends no-ops — when
    // tracing is off, so the loop pays one relaxed load per span site.
    let t_worker = telemetry::span_start();
    let mut tiles_claimed = 0u64;
    loop {
        let t_claim = telemetry::span_start();
        let t = match sched.next(me) {
            Claim::Done => break,
            Claim::Local(t) => t,
            Claim::Stolen { tile, batch } => {
                counters.note_steal(batch as u64);
                telemetry::span_end(telemetry::Phase::Steal, t_claim, batch as u64);
                tile
            }
        };
        tiles_claimed += 1;
        let (plan, job) = (&plans[t / ctx.per_plan], &jobs[t / ctx.per_plan]);
        let k = plan.a.cols();
        let b_pack = &*plan.b.packed;
        let local = t % ctx.per_plan;
        let ic_idx = local % ctx.tiles_m;
        let jc_idx = local / ctx.tiles_m;
        let ic = ic_idx * ctx.mc;
        let jc = jc_idx * ctx.nc;
        let mcb = ctx.mc.min(ctx.m_out - ic);
        let ncb = ctx.nc.min(ctx.n - jc);
        rowbuf.clear();
        match plan.rows {
            Some(rs) => rowbuf.extend_from_slice(&rs[ic..ic + mcb]),
            None => rowbuf.extend(ic..ic + mcb),
        }
        let row_blocks = mcb.div_ceil(MR);
        let strips = ncb.div_ceil(NR);

        // Panels start at the plan's k_lo and advance by kc (a tk
        // multiple), so every seam lands on the per-slice chunk grid; the
        // accumulator carries between panels through the output in exact
        // binary32.
        let ks = &job.ks;
        let mut pc = ks.start;
        while pc < ks.end {
            let kcb = ctx.kc.min(ks.end - pc);
            let a_len = row_blocks * kcb * MR;
            let t_fused = telemetry::span_start();
            pack_a_fused(
                plan.a.as_slice(),
                k,
                &rowbuf,
                pc,
                kcb,
                split_scheme,
                SplitKernel::Auto,
                &mut a_hi[..a_len],
                &mut a_lo[..a_len],
            );
            telemetry::span_end(
                telemetry::Phase::FusedSplitPack,
                t_fused,
                (4 * 2 * a_len) as u64,
            );
            let t_tile = telemetry::span_start();
            let mut sb = 0;
            while sb < strips {
                // On AVX-512 machines with the JIT active, adjacent B
                // strips and adjacent A row blocks fuse into one 8 x 32
                // kernel call — packed strips and packed row blocks are
                // each contiguous in memory, so a fused sliver is just
                // twice as long. `isa` only widens the views; if the
                // kernel ends up interpreted after all,
                // `micro::interpret` walks the blocks and strips one by
                // one. Everywhere else (no JIT, an AVX-only host, a lone
                // last strip) a call covers one block and one strip.
                let isa = match jit_active.map(jit::KernelCache::isa) {
                    Some(Some(jit::Isa::Avx512)) if sb + 1 < strips => jit::Isa::Avx512,
                    _ => jit::Isa::Avx,
                };
                let take = isa.strips();
                // Prepared slivers are bit-identical to what a per-tile
                // pack of the same B rows would produce: jc is NR-aligned (nc is
                // clamped to an NR multiple) and B holds exactly the
                // plan's k slice at the same kc, so global strip
                // jc/NR+sb of panel (pc-k_lo)/kc covers the same column
                // and k range with the same zero padding.
                let panel = (pc - ks.start) / ctx.kc;
                let b_pair = PlanePair {
                    hi: b_pack.sliver_span(false, panel, kcb, jc / NR + sb, take),
                    lo: b_pack.sliver_span(true, panel, kcb, jc / NR + sb, take),
                };
                let j0 = jc + sb * NR;
                let cols = (take * NR).min(ncb - sb * NR);
                let mut rb = 0;
                while rb < row_blocks {
                    // Two blocks while two remain; a lone last block
                    // runs the one-block kernel of the same ISA.
                    let blocks = isa.blocks().min(row_blocks - rb);
                    let a_span = rb * kcb * MR..(rb + blocks) * kcb * MR;
                    let a_pair = PlanePair {
                        hi: &a_hi[a_span.clone()],
                        lo: &a_lo[a_span],
                    };
                    let i0 = ic + rb * MR;
                    let rows = (blocks * MR).min(mcb - rb * MR);
                    let kernel = jit_active.and_then(|cache| {
                        let key = jit::KernelKey::new(isa, terms, tk, kcb, rows, cols)?;
                        jit_memo.get(cache, key)
                    });
                    // SAFETY: a compiled kernel was verified for exactly
                    // this (terms, tk, kcb, rows, cols), and the
                    // interpreter walks the same `rows.div_ceil(MR)`
                    // blocks and `cols.div_ceil(NR)` strips; the A pair
                    // holds `blocks` packed slivers and the B pair
                    // `take`; every plan owns its own m_out x n output
                    // buffer, the region (i0, j0, rows, cols) of up to
                    // 8 rows is in bounds of it (rows stop at mcb), and
                    // each global tile is claimed once, so regions
                    // written concurrently never overlap.
                    unsafe {
                        let out = job.out.0.add(i0 * ctx.n + j0);
                        match kernel {
                            Some(f) => jit::call(f, a_pair, b_pair, out, ctx.n),
                            None => micro::interpret(
                                out, ctx.n, rows, cols, a_pair, b_pair, kcb, tk, terms,
                            ),
                        }
                    }
                    rb += blocks;
                }
                sb += take;
            }
            telemetry::span_end(telemetry::Phase::Tile, t_tile, t as u64);
            pc += kcb;
        }
    }
    telemetry::span_end(telemetry::Phase::Worker, t_worker, tiles_claimed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emulation::emulated_gemm_entrywise;
    use crate::split_matrix::SplitMatrix;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Arc, OnceLock};

    const SCHEMES: [EmulationScheme; 4] = [
        EmulationScheme::EgemmTc,
        EmulationScheme::Markidis,
        EmulationScheme::MarkidisFourTerm,
        EmulationScheme::TcHalf,
    ];

    /// Raw `m x k` and `k x n` operands drawn from `seed`, and their
    /// splits under `scheme` for the oracle.
    fn operands(
        m: usize,
        k: usize,
        n: usize,
        scheme: EmulationScheme,
        seed: u64,
    ) -> (Matrix<f32>, Matrix<f32>, SplitMatrix, SplitMatrix) {
        let a = Matrix::<f32>::random_uniform(m, k, seed);
        let b = Matrix::<f32>::random_uniform(k, n, seed + 1);
        let sa = SplitMatrix::split(&a, scheme.split_scheme());
        let sb = SplitMatrix::split(&b, scheme.split_scheme());
        (a, b, sa, sb)
    }

    /// Scalar replay of every output over the k range `ks`: C (or zero),
    /// then ascending k in `tk` chunks from `ks.start`, the scheme's
    /// terms in issue order per chunk, over the split planes.
    fn replay(
        sa: &SplitMatrix,
        sb: &SplitMatrix,
        c: Option<&Matrix<f32>>,
        scheme: EmulationScheme,
        tk: usize,
        ks: Range<usize>,
    ) -> Matrix<f32> {
        let (k, n) = (sa.cols(), sb.cols());
        Matrix::from_fn(sa.rows(), n, |i, j| {
            let mut acc = c.map_or(0.0, |c0| c0.get(i, j));
            let mut kt = ks.start;
            while kt < ks.end {
                let chunk = tk.min(ks.end - kt);
                for &(al, bl) in scheme.terms() {
                    let (ap, bp) = (sa.plane(al), sb.plane(bl));
                    for kk in kt..kt + chunk {
                        acc += ap[i * k + kk] * bp[kk * n + j];
                    }
                }
                kt += chunk;
            }
            acc
        })
    }

    /// Tiny tiles force interior and edge paths on small shapes.
    fn tight() -> EngineConfig {
        EngineConfig {
            mc: 5,
            nc: 9,
            kc: 7,
        }
    }

    /// A private runtime of `threads` workers (at most 8), built once per
    /// width and shared by every test here.
    fn pool(threads: usize) -> &'static Arc<EngineRuntime> {
        static POOLS: [OnceLock<Arc<EngineRuntime>>; 9] = [const { OnceLock::new() }; 9];
        POOLS[threads].get_or_init(|| {
            EngineRuntime::new(RuntimeConfig {
                threads,
                ..Default::default()
            })
        })
    }

    /// All of the raw `b` as a B prepared for `scheme`/`tk`/`cfg`, past
    /// the cache.
    fn whole(
        b: &Matrix<f32>,
        scheme: EmulationScheme,
        tk: usize,
        cfg: EngineConfig,
    ) -> PreparedOperand {
        prepare_b_rows(pool(2), b, 0..b.rows(), scheme.split_scheme(), tk, cfg)
    }

    /// Execute a full-product plan on the shared 2-worker runtime.
    fn run(
        a: &Matrix<f32>,
        b: &PreparedOperand,
        c: Option<&Matrix<f32>>,
        scheme: EmulationScheme,
        tk: usize,
        cfg: EngineConfig,
    ) -> Matrix<f32> {
        let plan = GemmPlan {
            c,
            ..GemmPlan::new(a, b, scheme, tk, cfg)
        };
        execute(pool(2), &plan)
    }

    /// The full product of raw operands on the shared 2-worker runtime.
    fn run_full(
        a: &Matrix<f32>,
        b: &Matrix<f32>,
        c: Option<&Matrix<f32>>,
        scheme: EmulationScheme,
        tk: usize,
        cfg: EngineConfig,
    ) -> Matrix<f32> {
        run(a, &whole(b, scheme, tk, cfg), c, scheme, tk, cfg)
    }

    fn assert_bits_eq(got: &Matrix<f32>, want: &Matrix<f32>, what: &str) {
        assert_eq!(
            (got.rows(), got.cols()),
            (want.rows(), want.cols()),
            "{what}"
        );
        for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}");
        }
    }

    #[test]
    fn bit_identical_to_oracle_all_schemes() {
        for scheme in SCHEMES {
            let (a, b, sa, sb) = operands(11, 29, 13, scheme, 7);
            let c = Matrix::<f32>::random_uniform(11, 13, 77);
            for tk in [4usize, 8, 16] {
                let d = run_full(&a, &b, Some(&c), scheme, tk, tight());
                let want = replay(&sa, &sb, Some(&c), scheme, tk, 0..29);
                assert_bits_eq(&d, &want, &format!("{scheme:?} tk={tk}"));
            }
        }
    }

    /// On an AVX-512 host with the JIT on, a tile of four row blocks
    /// runs as two 8-row kernel calls: the only key a 16 x 64 x 32
    /// product asks for has 8 rows, and it compiles and verifies.
    #[test]
    fn avx512_workers_run_two_row_blocks_per_call() {
        let rt = EngineRuntime::new(RuntimeConfig {
            threads: 1,
            ..Default::default()
        });
        let Some(cache) = rt.jit_cache().filter(|c| c.isa() == Some(jit::Isa::Avx512)) else {
            eprintln!("skipped: no AVX-512 JIT on this host or under EGEMM_JIT=0");
            return;
        };
        let (scheme, tk, cfg) = (EmulationScheme::EgemmTc, 8, EngineConfig::default());
        let (m, k, n) = (16, 64, 32);
        let (a, b, sa, sb) = operands(m, k, n, scheme, 25);
        let pb = prepare_b_rows(&rt, &b, 0..k, scheme.split_scheme(), tk, cfg);
        let d = execute(&rt, &GemmPlan::new(&a, &pb, scheme, tk, cfg));
        let key = jit::KernelKey::new(jit::Isa::Avx512, scheme.terms(), tk, k, 2 * MR, n);
        let key = key.expect("an 8-row AVX-512 key is in range");
        assert_eq!(cache.keys(), vec![key], "the tile's kernel keys");
        assert!(cache.get(key).is_some(), "the 8-row kernel was poisoned");
        assert_bits_eq(&d, &replay(&sa, &sb, None, scheme, tk, 0..k), "8-row tiles");
    }

    #[test]
    fn default_config_matches_oracle() {
        let scheme = EmulationScheme::EgemmTc;
        let (a, b, sa, sb) = operands(10, 40, 12, scheme, 3);
        let d = run_full(&a, &b, None, scheme, 8, EngineConfig::default());
        for &(i, j) in &[(0usize, 0usize), (9, 11), (4, 7)] {
            let e = emulated_gemm_entrywise(&sa, &sb, None, scheme, i, j);
            assert_eq!(d.get(i, j).to_bits(), e.to_bits());
        }
    }

    #[test]
    fn degenerate_shapes() {
        let scheme = EmulationScheme::EgemmTc;
        // 1 x k x 1.
        let (a, b, sa, sb) = operands(1, 17, 1, scheme, 9);
        let d = run_full(&a, &b, None, scheme, 8, tight());
        let e = emulated_gemm_entrywise(&sa, &sb, None, scheme, 0, 0);
        assert_eq!(d.get(0, 0).to_bits(), e.to_bits());
        // k = 0: B has no panels, and the output is C unchanged.
        let (a0, b0, _, _) = operands(3, 0, 4, scheme, 11);
        let c = Matrix::<f32>::random_uniform(3, 4, 13);
        let d0 = run_full(&a0, &b0, Some(&c), scheme, 8, tight());
        assert_eq!(d0.as_slice(), c.as_slice());
    }

    /// A row-sampled plan over raw operands on the shared 2-worker
    /// runtime.
    fn run_rows(
        a: &Matrix<f32>,
        b: &Matrix<f32>,
        rows: &[usize],
        scheme: EmulationScheme,
    ) -> Matrix<f32> {
        let pb = whole(b, scheme, 8, tight());
        let plan = GemmPlan {
            rows: Some(rows),
            ..GemmPlan::new(a, &pb, scheme, 8, tight())
        };
        execute(pool(2), &plan)
    }

    #[test]
    fn rows_gather_matches_full() {
        let scheme = EmulationScheme::Markidis;
        let (a, b, _, _) = operands(23, 31, 10, scheme, 15);
        let full = run_full(&a, &b, None, scheme, 8, tight());
        let rows = [0usize, 2, 3, 9, 17, 22];
        let sampled = run_rows(&a, &b, &rows, scheme);
        for (ri, &r) in rows.iter().enumerate() {
            for j in 0..10 {
                assert_eq!(sampled.get(ri, j).to_bits(), full.get(r, j).to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rows_out_of_range_rejected() {
        let scheme = EmulationScheme::EgemmTc;
        let (a, b, _, _) = operands(4, 8, 4, scheme, 17);
        run_rows(&a, &b, &[0, 4], scheme);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rows_descending_rejected() {
        let scheme = EmulationScheme::EgemmTc;
        let (a, b, _, _) = operands(4, 8, 4, scheme, 17);
        run_rows(&a, &b, &[2, 1], scheme);
    }

    #[test]
    fn range_restarts_chunking_at_slice_start() {
        // A [k_lo, k_hi) slice must chunk from k_lo, like a fused kernel
        // run over the slice alone.
        let scheme = EmulationScheme::EgemmTc;
        let (a, b, sa, sb) = operands(6, 37, 5, scheme, 19);
        let (k_lo, k_hi, tk) = (13usize, 30usize, 8usize);
        let pb = prepare_b_rows(pool(2), &b, k_lo..k_hi, scheme.split_scheme(), tk, tight());
        let plan = GemmPlan {
            k_range: Some(k_lo..k_hi),
            ..GemmPlan::new(&a, &pb, scheme, tk, tight())
        };
        let want = replay(&sa, &sb, None, scheme, tk, k_lo..k_hi);
        assert_bits_eq(&execute(pool(2), &plan), &want, "slice [13, 30)");
    }

    #[test]
    fn thread_count_does_not_change_bits() {
        let scheme = EmulationScheme::EgemmTc;
        let (a, b, _, _) = operands(33, 48, 21, scheme, 23);
        let with = |threads| {
            let pb = prepare_b_rows(pool(threads), &b, 0..48, scheme.split_scheme(), 8, tight());
            let plan = GemmPlan::new(&a, &pb, scheme, 8, tight());
            execute(pool(threads), &plan)
        };
        assert_bits_eq(&with(4), &with(1), "threads 4 vs 1");
    }

    #[test]
    fn prepared_b_path_bit_identical() {
        // A B packed through the cache against the same B packed past it.
        let rt = EngineRuntime::new(RuntimeConfig {
            threads: 2,
            ..Default::default()
        });
        for scheme in SCHEMES {
            let a = Matrix::<f32>::random_uniform(11, 29, 41);
            let b = Matrix::<f32>::random_uniform(29, 13, 43);
            let c = Matrix::<f32>::random_uniform(11, 13, 45);
            for tk in [4usize, 8] {
                let baseline = run_full(&a, &b, Some(&c), scheme, tk, tight());
                let pb = prepare_b(&rt, &b, scheme.split_scheme(), tk, tight());
                let plan = GemmPlan {
                    c: Some(&c),
                    ..GemmPlan::new(&a, &pb, scheme, tk, tight())
                };
                let d = execute(&rt, &plan);
                assert_bits_eq(&d, &baseline, &format!("{scheme:?} tk={tk}"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "prepacked panel depth disagrees")]
    fn prepared_b_blocking_mismatch_rejected() {
        let rt = EngineRuntime::new(RuntimeConfig::default());
        let scheme = EmulationScheme::EgemmTc;
        let a = Matrix::<f32>::random_uniform(8, 32, 51);
        let b = Matrix::<f32>::random_uniform(32, 8, 53);
        let pb = prepare_b(&rt, &b, scheme.split_scheme(), 8, tight());
        // Same shapes, different kc (16 vs tight()'s clamped 8).
        let other = EngineConfig { kc: 16, ..tight() };
        let plan = GemmPlan::new(&a, &pb, scheme, 8, other);
        execute(&rt, &plan);
    }

    #[test]
    fn fused_entry_bit_identical_to_entrywise() {
        // Raw operands (A split per tile inside the pack, B split while
        // it is prepared) against the scalar replay of their splits.
        for scheme in SCHEMES {
            let a = Matrix::<f32>::random_uniform(11, 29, 61);
            let b = Matrix::<f32>::random_uniform(29, 13, 63);
            let sa = SplitMatrix::split(&a, scheme.split_scheme());
            let sb = SplitMatrix::split(&b, scheme.split_scheme());
            let c = Matrix::<f32>::random_uniform(11, 13, 65);
            for tk in [4usize, 8] {
                let want = replay(&sa, &sb, Some(&c), scheme, tk, 0..29);
                let pb = prepare_b_rows(pool(2), &b, 0..29, scheme.split_scheme(), tk, tight());
                let raw = run(&a, &pb, Some(&c), scheme, tk, tight());
                assert_bits_eq(&raw, &want, &format!("{scheme:?} tk={tk}"));
            }
        }
    }

    #[test]
    fn fused_range_restarts_chunking_like_entrywise() {
        // Split-K chunk boundaries land where the scalar replay of the
        // slice puts them when the operand elements are split on the fly.
        let scheme = EmulationScheme::EgemmTc;
        let a = Matrix::<f32>::random_uniform(6, 37, 67);
        let b = Matrix::<f32>::random_uniform(37, 5, 69);
        let sa = SplitMatrix::split(&a, scheme.split_scheme());
        let sb = SplitMatrix::split(&b, scheme.split_scheme());
        let rt = EngineRuntime::new(RuntimeConfig {
            threads: 2,
            cache_bytes: 0,
        });
        for (k_lo, k_hi) in [(0usize, 37usize), (13, 30), (8, 8), (5, 37)] {
            let pb = prepare_b_rows(&rt, &b, k_lo..k_hi, scheme.split_scheme(), 8, tight());
            let plan = GemmPlan {
                k_range: Some(k_lo..k_hi),
                ..GemmPlan::new(&a, &pb, scheme, 8, tight())
            };
            let want = replay(&sa, &sb, None, scheme, 8, k_lo..k_hi);
            assert_bits_eq(&execute(&rt, &plan), &want, &format!("[{k_lo}, {k_hi})"));
        }
    }

    #[test]
    fn fused_prepared_path_bit_identical() {
        let rt = EngineRuntime::new(RuntimeConfig {
            threads: 2,
            ..Default::default()
        });
        for scheme in SCHEMES {
            let a = Matrix::<f32>::random_uniform(11, 29, 71);
            let b = Matrix::<f32>::random_uniform(29, 13, 73);
            let sa = SplitMatrix::split(&a, scheme.split_scheme());
            let sb = SplitMatrix::split(&b, scheme.split_scheme());
            let c = Matrix::<f32>::random_uniform(11, 13, 75);
            let want = replay(&sa, &sb, Some(&c), scheme, 8, 0..29);
            let pb = prepare_b(&rt, &b, scheme.split_scheme(), 8, tight());
            let plan = GemmPlan {
                c: Some(&c),
                ..GemmPlan::new(&a, &pb, scheme, 8, tight())
            };
            assert_bits_eq(&execute(&rt, &plan), &want, &format!("{scheme:?}"));
        }
    }

    /// The panic message of `f`, which must panic.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("plan must be rejected");
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p.downcast_ref::<&str>().copied().unwrap_or("").to_string(),
        }
    }

    #[test]
    fn plan_validation_rejects_every_bad_plan() {
        let rt = EngineRuntime::new(RuntimeConfig {
            threads: 2,
            cache_bytes: 0,
        });
        let scheme = EmulationScheme::EgemmTc;
        let a = Matrix::<f32>::random_uniform(6, 16, 81);
        let b = Matrix::<f32>::random_uniform(16, 5, 83);
        let b_short = Matrix::<f32>::random_uniform(15, 5, 84);
        let empty_a = Matrix::<f32>::zeros(0, 16);
        let c_bad = Matrix::<f32>::zeros(5, 5);
        let c_full = Matrix::<f32>::zeros(6, 5);
        let cfg = tight(); // kc clamps to 8 under tk = 8
        let split = scheme.split_scheme();
        let pb = prepare_b(&rt, &b, split, 8, cfg);
        let pb_short = prepare_b(&rt, &b_short, split, 8, cfg);
        let pb_trunc = prepare_b(&rt, &b, SplitScheme::Truncate, 8, cfg);
        let pb_rows_trunc = prepare_b_rows(&rt, &b, 0..16, SplitScheme::Truncate, 8, cfg);
        let pb_kc16 = prepare_b(&rt, &b, split, 8, EngineConfig { kc: 16, ..cfg });
        let pb_slice = prepare_b_rows(&rt, &b, 4..12, split, 8, cfg);
        let base = || GemmPlan::new(&a, &pb, scheme, 8, cfg);
        let cases: Vec<(GemmPlan<'_>, &str)> = vec![
            (
                GemmPlan {
                    b: &pb_short,
                    ..base()
                },
                "inner dimensions disagree",
            ),
            (
                // B's depth must equal the k range's length, not A's k.
                GemmPlan {
                    k_range: Some(0..8),
                    ..base()
                },
                "inner dimensions disagree",
            ),
            (
                GemmPlan {
                    b: &pb_slice,
                    ..base()
                },
                "inner dimensions disagree",
            ),
            (
                GemmPlan {
                    b: &pb_rows_trunc,
                    ..base()
                },
                "B split scheme mismatch",
            ),
            (
                GemmPlan {
                    b: &pb_trunc,
                    ..base()
                },
                "B split scheme mismatch",
            ),
            (
                GemmPlan {
                    c: Some(&c_bad),
                    ..base()
                },
                "C shape",
            ),
            (
                // C must match the sampled output, not the full product.
                GemmPlan {
                    c: Some(&c_full),
                    rows: Some(&[1, 3]),
                    ..base()
                },
                "C shape",
            ),
            (GemmPlan { tk: 0, ..base() }, "tk must be positive"),
            (
                GemmPlan {
                    rows: Some(&[0, 6]),
                    ..base()
                },
                "out of range",
            ),
            (
                GemmPlan {
                    rows: Some(&[2, 2]),
                    ..base()
                },
                "strictly ascending",
            ),
            (
                GemmPlan {
                    k_range: Some(4..17),
                    ..base()
                },
                "k range [4, 17) out of bounds",
            ),
            (
                GemmPlan {
                    k_range: Some(Range { start: 9, end: 3 }),
                    ..base()
                },
                "k range [9, 3) out of bounds",
            ),
            (
                GemmPlan {
                    b: &pb_kc16,
                    ..base()
                },
                "prepacked panel depth disagrees",
            ),
            (
                // An empty A used to return before the kc check ran.
                GemmPlan {
                    a: &empty_a,
                    b: &pb_kc16,
                    ..base()
                },
                "prepacked panel depth disagrees",
            ),
            (
                GemmPlan {
                    rows: Some(&[]),
                    b: &pb_kc16,
                    ..base()
                },
                "prepacked panel depth disagrees",
            ),
        ];
        for (plan, want) in &cases {
            let msg = panic_message(|| {
                execute(&rt, plan);
            });
            assert!(msg.contains(want), "{plan:?}: got {msg:?}, want {want:?}");
        }
        // Plans of one dispatch must share their output shape and tk.
        let sampled = GemmPlan {
            rows: Some(&[1, 3]),
            ..base()
        };
        let pb_tk16 = prepare_b(&rt, &b, split, 16, cfg);
        let tk16 = GemmPlan {
            tk: 16,
            b: &pb_tk16,
            ..base()
        };
        for (plans, what) in [([base(), sampled], "shape"), ([base(), tk16], "tk")] {
            let msg = panic_message(|| {
                execute_all(&rt, &plans);
            });
            let want = "plans of one dispatch must share output shape, scheme, tk and blocking";
            assert!(msg.contains(want), "{what}: got {msg:?}");
        }
        // The valid neighbours of those plans run.
        assert_eq!(execute(&rt, &base()).rows(), 6);
        assert!(execute_all(&rt, &[]).is_empty());
        assert_eq!(execute_all(&rt, &[base(), base()]).len(), 2);
        let empty = GemmPlan {
            a: &empty_a,
            ..base()
        };
        assert_eq!(execute(&rt, &empty).rows(), 0);
        // A B prepared from a slice runs under the matching k range and
        // matches the scalar replay of that slice.
        let ranged = GemmPlan {
            k_range: Some(4..12),
            b: &pb_slice,
            ..base()
        };
        let (sa, sb) = (SplitMatrix::split(&a, split), SplitMatrix::split(&b, split));
        assert_bits_eq(
            &execute(&rt, &ranged),
            &replay(&sa, &sb, None, scheme, 8, 4..12),
            "slice 4..12",
        );
    }
}
