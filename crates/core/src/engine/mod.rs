//! Blocked pack-and-tile execution engine for the emulated GEMM.
//!
//! The functional executor used to stream the whole B operand past every
//! output row — O(m·k·n) DRAM traffic over B and a store/reload of the C
//! row on every k step. This module is a BLIS-style replacement: the
//! output is cut into `mc x nc` macro-tiles, each tile walks the
//! reduction in `kc`-deep panels whose hi/lo operand planes are packed
//! into contiguous, cache-resident slivers, and an `MR x NR`
//! register-tiled microkernel keeps 32 accumulators in registers for a
//! whole panel. Workers claim macro-tiles from the 2D grid through a
//! locality-aware work-stealing scheduler (`sched`): each worker owns
//! a contiguous column-major run (all row tiles of a jc column block
//! before the next block, so the B panel it just touched stays hot) and
//! idle workers steal half-ranges from the most-loaded victim, so
//! skewed shapes (m = 64, n = k = 4096) parallelize across column tiles
//! where whole-row partitioning would idle every core but four. Cold B
//! panels are packed cooperatively through a per-call
//! `pack::PanelStore`: the first worker to reach a (jc, pc) panel
//! packs and publishes it, every other worker reuses it — once per
//! panel per call instead of once per tile per worker.
//!
//! The engine is numerically *invisible*: per output element it replays
//! exactly the profiled Tensor-Core accumulation order — ascending k in
//! `tk`-sized chunks, the scheme's terms in issue order within a chunk,
//! one separate binary32 multiply and add per product. Blocking over i/j
//! only reorders *which elements* are computed when, never the value
//! stream within one element. Blocking over k is only legal because `kc`
//! is forced to a multiple of `tk` (panel seams land on chunk
//! boundaries) and the partial accumulator is carried through the output
//! buffer in binary32 — a lossless round-trip. Every output is
//! therefore bit-identical to [`crate::emulated_gemm_entrywise`]; the
//! proptest suite in `tests/prop_engine.rs` enforces that with
//! `to_bits` equality.
//!
//! The public surface is one plan and one executor: a [`GemmPlan`]
//! names the operands (A as split planes or raw f32; B as split planes,
//! raw f32, or panels packed once by [`prepare_b`]), an optional C, an
//! optional row sample and k slice, and the scheme/chunk depth/blocking;
//! [`execute`] validates the whole plan before any compute and runs it.
//! Raw operands take the fused path — each tile's pack splits them on
//! the fly, so no split matrix is ever materialized.

mod cache;
pub(crate) mod jit;
mod micro;
mod pack;
pub mod runtime;
mod sched;

use crate::emulation::EmulationScheme;
use crate::split_matrix::SplitMatrix;
use crate::telemetry;
pub use cache::fingerprint as content_fingerprint;
use egemm_fp::{SplitKernel, SplitScheme};
use egemm_matrix::Matrix;
pub use jit::{available as jit_available, exec_mappings as jit_exec_mappings};
use micro::{load_acc, microkernel, store_acc, PlanePair};
use pack::{pack_a, pack_a_fused, pack_b, pack_b_fused, PanelStore, MR, NR};
pub use runtime::{CacheStats, EngineRuntime, PreparedOperand, RuntimeConfig};
pub use sched::SchedStats;
use sched::{Claim, TileScheduler};
use std::ops::Range;

/// Cache-blocking and threading parameters of the execution engine.
///
/// Defaults target a generic x86 cache hierarchy: a `kc x NR` B sliver
/// (2 planes x 8 KiB) lives in L1 across a row block, the packed A block
/// (2 planes x `mc x kc` = 128 KiB) in L2, and the B panel in outer
/// cache. All sizes are clamped to legal values at run time (`kc` to a
/// multiple of the chunk depth `tk`, `mc`/`nc` to at least one register
/// tile), so any configuration computes correct — and bit-identical —
/// results; only throughput varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Output rows per macro-tile.
    pub mc: usize,
    /// Output columns per macro-tile.
    pub nc: usize,
    /// Reduction depth per packed panel (rounded down to a `tk`
    /// multiple, up to at least one chunk).
    pub kc: usize,
    /// Worker threads; `0` resolves `EGEMM_THREADS`, then
    /// `RAYON_NUM_THREADS`, then the machine's available parallelism.
    pub threads: usize,
    /// Dispatch tiles through JIT-compiled shape-specialized
    /// microkernels when the process supports them (x86-64 Linux with
    /// AVX, `EGEMM_JIT` not set to `0`). The interpreted microkernel
    /// remains the bit-identity oracle: every compiled kernel is
    /// verified against it before first use, and any tile the JIT does
    /// not cover falls back transparently. Default on.
    pub jit: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            mc: 64,
            nc: 256,
            kc: 256,
            threads: 0,
            jit: true,
        }
    }
}

impl EngineConfig {
    /// The worker count this configuration resolves to *when queried
    /// directly*. The execution path no longer calls this per GEMM: a
    /// zero `threads` now defers to [`EngineRuntime::default_threads`],
    /// which resolved the same environment variables exactly once at
    /// runtime construction ([`RuntimeConfig::from_env`]).
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        EngineRuntime::global().default_threads()
    }
}

/// Clamp a requested panel depth to the chunk grid: a positive multiple
/// of `tk`, so panel seams land on chunk boundaries. Shared by execution
/// and operand preparation so a prepacked B always matches the blocking
/// the engine will run.
pub(crate) fn clamp_kc(kc: usize, tk: usize) -> usize {
    (kc.max(tk) / tk) * tk
}

/// The A operand of a [`GemmPlan`]: split planes, or raw f32 that each
/// tile's pack splits on the fly (the fused path).
#[derive(Debug, Clone, Copy)]
pub enum Operand<'a> {
    Split(&'a SplitMatrix),
    Raw(&'a Matrix<f32>),
}

impl Operand<'_> {
    /// `(rows, cols)` of the operand.
    fn shape(&self) -> (usize, usize) {
        match self {
            Operand::Split(s) => (s.rows(), s.cols()),
            Operand::Raw(m) => (m.rows(), m.cols()),
        }
    }
}

/// The B operand of a [`GemmPlan`]: either input form of [`Operand`], or
/// whole-operand panels packed once by [`prepare_b`].
#[derive(Debug, Clone, Copy)]
pub enum BOperand<'a> {
    Split(&'a SplitMatrix),
    Raw(&'a Matrix<f32>),
    Prepared(&'a PreparedOperand),
}

/// One emulated GEMM `D = A·B (+ C)` with the accumulation semantics of
/// [`crate::emulated_gemm_tk`]: per output element, ascending k in
/// `tk`-sized chunks, the scheme's terms in issue order per chunk.
///
/// `rows` computes only the listed A rows (strictly ascending; the
/// output is `rows.len() x n`, bit-identical to those rows of the full
/// product). `k_range` computes the split-K partial over `[k_lo, k_hi)`
/// with chunking restarted at `k_lo`. `c`, when present, seeds the
/// accumulator and must match the output shape. A prepared B requires
/// the full k range and a panel depth matching `clamp(cfg.kc, tk)`.
#[derive(Debug, Clone)]
pub struct GemmPlan<'a> {
    pub a: Operand<'a>,
    pub b: BOperand<'a>,
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
        a: Operand<'a>,
        b: BOperand<'a>,
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
        let (a_rows, k) = self.a.shape();
        let (b_rows, n) = match self.b {
            BOperand::Split(s) => (s.rows(), s.cols()),
            BOperand::Raw(m) => (m.rows(), m.cols()),
            BOperand::Prepared(p) => (p.rows(), p.cols()),
        };
        assert_eq!(k, b_rows, "inner dimensions disagree");
        let split = self.scheme.split_scheme();
        if let Operand::Split(s) = self.a {
            assert_eq!(s.scheme, split, "A split scheme mismatch");
        }
        match self.b {
            BOperand::Split(s) => assert_eq!(s.scheme, split, "B split scheme mismatch"),
            BOperand::Prepared(p) => assert_eq!(p.scheme(), split, "B split scheme mismatch"),
            BOperand::Raw(_) => {}
        }
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
        let ks = self.k_range.clone().unwrap_or(0..k);
        assert!(
            ks.start <= ks.end && ks.end <= k,
            "k range [{}, {}) out of bounds",
            ks.start,
            ks.end
        );
        if let BOperand::Prepared(p) = self.b {
            assert!(ks == (0..k), "prepacked B requires a full k range");
            assert_eq!(
                p.packed.kc(),
                clamp_kc(self.cfg.kc, self.tk),
                "prepacked panel depth disagrees with the blocking in effect"
            );
        }
        (m_out, n, ks)
    }
}

/// Pack `src`'s B panels straight from the raw f32 data through `rt`'s
/// cache, for reuse as [`BOperand::Prepared`] under the same `tk`/`cfg`
/// blocking. A cache hit skips the pack; the returned handle pins the
/// panels independently of eviction.
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

/// Shared output buffer handed to workers; tiles are disjoint by
/// construction, so concurrent raw-pointer writes never overlap.
struct SharedOut(*mut f32);
// SAFETY: the pointer is only dereferenced inside `execute`'s dispatch,
// which outlives every worker, and each worker writes only the disjoint
// tile regions it claimed from the scheduler.
unsafe impl Send for SharedOut {}
// SAFETY: as above — shared access never produces overlapping writes.
unsafe impl Sync for SharedOut {}

/// Run `plan` on `rt`'s pool and return `D`.
///
/// # Panics
/// Before any compute, if the plan is invalid: operand or C shapes
/// disagree, a split scheme differs from the plan's, `tk` is zero, a
/// sampled row is out of range or out of order, the k range is out of
/// bounds, or a prepared B meets a partial k range or another `kc`.
pub fn execute(rt: &EngineRuntime, plan: &GemmPlan<'_>) -> Matrix<f32> {
    let (m_out, n, ks) = plan.validate();
    let mut out = match plan.c {
        Some(c0) => c0.clone(),
        None => Matrix::zeros(m_out, n),
    };
    if m_out == 0 || n == 0 || ks.is_empty() {
        return out; // nothing to accumulate; out already holds C (or zeros)
    }
    // Clamp the blocking to legal values: kc on the chunk grid, mc to at
    // least one register tile, nc to a positive multiple of NR so every
    // macro-tile's column origin is strip-aligned (which is what lets a
    // whole-operand B pack serve any tile). Tiling bounds never affect
    // output bits — only which elements are computed when.
    let kc = clamp_kc(plan.cfg.kc, plan.tk);
    let mc = plan.cfg.mc.max(MR);
    let nc = plan.cfg.nc.div_ceil(NR).max(1) * NR;
    let tiles_m = m_out.div_ceil(mc);
    let tiles_n = n.div_ceil(nc);
    let n_tiles = tiles_m * tiles_n;
    let threads = if plan.cfg.threads > 0 {
        plan.cfg.threads
    } else {
        rt.default_threads()
    }
    .min(n_tiles)
    .max(1);

    // Tiles are linearized column-major (t = jc_idx * tiles_m + ic_idx),
    // so each worker's contiguous initial range walks all row tiles of
    // one jc column block before advancing — the packed B panel it
    // shares through the store stays hot across the whole run.
    let sched = TileScheduler::new(n_tiles, threads);
    // Cooperative B-panel store: present whenever B must be packed this
    // call (absent on the prepacked path, which reads slivers directly).
    let panels = ks.len().div_ceil(kc);
    let store = match plan.b {
        BOperand::Prepared(_) => None,
        _ => Some(PanelStore::new(tiles_n, panels)),
    };
    let shared = SharedOut(out.as_mut_slice().as_mut_ptr());
    let ctx = WorkerCtx {
        m_out,
        n,
        mc,
        nc,
        kc,
        k_lo: ks.start,
        k_hi: ks.end,
        tiles_m,
    };
    rt.run_parallel(threads, &|| {
        worker(&ctx, plan, &sched, store.as_ref(), rt, &shared)
    });
    out
}

/// Geometry shared by all workers of one execution.
struct WorkerCtx {
    m_out: usize,
    n: usize,
    mc: usize,
    nc: usize,
    kc: usize,
    k_lo: usize,
    k_hi: usize,
    tiles_m: usize,
}

fn worker(
    ctx: &WorkerCtx,
    plan: &GemmPlan<'_>,
    sched: &TileScheduler,
    store: Option<&PanelStore>,
    rt: &EngineRuntime,
    shared: &SharedOut,
) {
    let terms = plan.scheme.terms();
    let k = plan.a.shape().1;
    let split_scheme = plan.scheme.split_scheme();
    let (a_hi_used, a_lo_used) = (terms.iter().any(|t| !t.0), terms.iter().any(|t| t.0));
    let (b_hi_used, b_lo_used) = (terms.iter().any(|t| !t.1), terms.iter().any(|t| t.1));
    // Per-worker A pack scratch, reused across tiles and panels. Planes
    // a scheme never touches stay empty and are never indexed, except
    // that a fused pack always emits both planes (the split computes
    // them together; the microkernel still reads only the used ones).
    // B panels come from the shared cooperative store (or the prepacked
    // operand), never from per-worker scratch.
    let fused_a = matches!(plan.a, Operand::Raw(_));
    let a_cap = ctx.mc.div_ceil(MR) * MR * ctx.kc;
    let mut a_hi = vec![0f32; if a_hi_used || fused_a { a_cap } else { 0 }];
    let mut a_lo = vec![0f32; if a_lo_used || fused_a { a_cap } else { 0 }];
    let mut rowbuf: Vec<usize> = Vec::with_capacity(ctx.mc);
    let counters = rt.sched_counters();
    // JIT dispatch state: the runtime's compiled-kernel cache (absent
    // when the call or the process opted out) plus a per-worker memo
    // that keeps the tile loop off the cache mutex.
    let jit_active = if plan.cfg.jit { rt.jit_cache() } else { None };
    let b_pack = match plan.b {
        BOperand::Prepared(p) => Some(&*p.packed),
        _ => None,
    };
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
        let ic_idx = t % ctx.tiles_m;
        let jc_idx = t / ctx.tiles_m;
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

        // Panels start at k_lo and advance by kc (a tk multiple), so
        // every seam lands on the per-slice chunk grid; the accumulator
        // carries between panels through the output in exact binary32.
        let mut pc = ctx.k_lo;
        while pc < ctx.k_hi {
            let kcb = ctx.kc.min(ctx.k_hi - pc);
            let a_len = row_blocks * kcb * MR;
            let b_len = strips * kcb * NR;
            match plan.a {
                Operand::Split(sa) => {
                    let t_pack_a = telemetry::span_start();
                    if a_hi_used {
                        pack_a(sa.plane(false), k, &rowbuf, pc, kcb, &mut a_hi[..a_len]);
                    }
                    if a_lo_used {
                        pack_a(sa.plane(true), k, &rowbuf, pc, kcb, &mut a_lo[..a_len]);
                    }
                    telemetry::span_end(
                        telemetry::Phase::PackA,
                        t_pack_a,
                        4 * (a_len * (a_hi_used as usize + a_lo_used as usize)) as u64,
                    );
                }
                Operand::Raw(ra) => {
                    let t_fused = telemetry::span_start();
                    pack_a_fused(
                        ra.as_slice(),
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
                }
            }
            // B panels go through the cooperative store: the first
            // worker to reach (jc, pc) packs and publishes it, everyone
            // else reuses the published planes — the packed bytes are a
            // pure function of (operand, jc, pc, blocking), so which
            // worker packs cannot change a bit.
            let b_planes: Option<(&[f32], &[f32])> = match store {
                None => None, // prepacked: slivers are read directly below
                Some(store) => {
                    let pc_idx = (pc - ctx.k_lo) / ctx.kc;
                    let t_pack = telemetry::span_start();
                    let (bh, bl, packed_here) =
                        store.acquire(jc_idx, pc_idx, |hi, lo| match plan.b {
                            BOperand::Split(sb) => {
                                if b_hi_used {
                                    hi.resize(b_len, 0.0);
                                    pack_b(sb.plane(false), ctx.n, jc, ncb, pc, kcb, hi);
                                }
                                if b_lo_used {
                                    lo.resize(b_len, 0.0);
                                    pack_b(sb.plane(true), ctx.n, jc, ncb, pc, kcb, lo);
                                }
                            }
                            BOperand::Raw(rb) => {
                                hi.resize(b_len, 0.0);
                                lo.resize(b_len, 0.0);
                                pack_b_fused(
                                    rb.as_slice(),
                                    ctx.n,
                                    jc,
                                    ncb,
                                    pc,
                                    kcb,
                                    split_scheme,
                                    SplitKernel::Auto,
                                    hi,
                                    lo,
                                );
                            }
                            BOperand::Prepared(_) => {
                                unreachable!("a prepacked B has no panel store")
                            }
                        });
                    if packed_here {
                        counters.note_panel_packed();
                        match plan.b {
                            BOperand::Split(_) => telemetry::span_end(
                                telemetry::Phase::PackB,
                                t_pack,
                                4 * (b_len * (b_hi_used as usize + b_lo_used as usize)) as u64,
                            ),
                            _ => telemetry::span_end(
                                telemetry::Phase::FusedSplitPack,
                                t_pack,
                                (4 * 2 * b_len) as u64,
                            ),
                        }
                    } else {
                        counters.note_panel_reused();
                        telemetry::span_end(telemetry::Phase::PanelWait, t_pack, pc_idx as u64);
                    }
                    Some((bh, bl))
                }
            };
            let t_tile = telemetry::span_start();
            let mut sb = 0;
            while sb < strips {
                // On AVX-512 machines with the JIT active, adjacent B
                // strips fuse into one 32-lane dual-strip kernel — the
                // packed strips are contiguous in memory, so the fused
                // sliver is just twice as long. `take` only widens the
                // view; if the kernel ends up interpreted after all,
                // the fallback below walks the strips one by one.
                let take = match jit_active.map(jit::KernelCache::isa) {
                    Some(Some(jit::Isa::Avx512)) if sb + 1 < strips => 2,
                    _ => 1,
                };
                // Prepacked slivers are bit-identical to what pack_b
                // would have produced for this tile: jc is NR-aligned
                // (nc is clamped to an NR multiple) and the k grid
                // matches (k_lo = 0, same kc), so global strip jc/NR+sb
                // of panel pc/kc covers exactly the same column range
                // with the same zero padding.
                let b_pair = match b_pack {
                    Some(p) => PlanePair {
                        hi: p.sliver_span(false, pc / ctx.kc, kcb, jc / NR + sb, take),
                        lo: p.sliver_span(true, pc / ctx.kc, kcb, jc / NR + sb, take),
                    },
                    None => {
                        let (bh, bl) = b_planes.expect("store-packed planes present");
                        PlanePair {
                            hi: sliver_span(bh, sb, kcb * NR, take),
                            lo: sliver_span(bl, sb, kcb * NR, take),
                        }
                    }
                };
                let j0 = jc + sb * NR;
                let cols = (take * NR).min(ncb - sb * NR);
                for rb in 0..row_blocks {
                    let a_pair = PlanePair {
                        hi: sliver(&a_hi, rb, kcb * MR),
                        lo: sliver(&a_lo, rb, kcb * MR),
                    };
                    let i0 = ic + rb * MR;
                    let rows = MR.min(mcb - rb * MR);
                    let kernel = jit_active.and_then(|cache| {
                        let isa = if take == 2 {
                            jit::Isa::Avx512
                        } else {
                            jit::Isa::Avx
                        };
                        let key = jit::KernelKey::new(isa, terms, plan.tk, kcb, rows, cols)?;
                        jit_memo.get(cache, key)
                    });
                    match kernel {
                        // SAFETY: the kernel was compiled (and verified
                        // against the interpreted path) for exactly
                        // this (terms, tk, kcb, rows, cols); the pairs
                        // hold `take` packed slivers; tile regions
                        // (i0, j0, rows, cols) are disjoint across
                        // workers and in-bounds of the m_out x n
                        // output.
                        Some(f) => unsafe {
                            jit::call(f, a_pair, b_pair, shared.0.add(i0 * ctx.n + j0), ctx.n);
                        },
                        None => {
                            for s in 0..take {
                                if s * NR >= cols {
                                    break; // ragged pair: lone last strip
                                }
                                let cols_s = NR.min(cols - s * NR);
                                let b_s = PlanePair {
                                    hi: sliver(b_pair.hi, s, kcb * NR),
                                    lo: sliver(b_pair.lo, s, kcb * NR),
                                };
                                // SAFETY: as above — disjoint, in-bounds
                                // strip regions of the shared output.
                                unsafe {
                                    let (n, j) = (ctx.n, j0 + s * NR);
                                    let mut acc = load_acc(shared.0, n, i0, j, rows, cols_s);
                                    microkernel(&mut acc, a_pair, b_s, kcb, plan.tk, terms);
                                    store_acc(&acc, shared.0, n, i0, j, rows, cols_s);
                                }
                            }
                        }
                    }
                }
                sb += take;
            }
            telemetry::span_end(telemetry::Phase::Tile, t_tile, t as u64);
            pc += kcb;
        }
    }
    telemetry::span_end(telemetry::Phase::Worker, t_worker, tiles_claimed);
}

/// The `idx`-th packed sliver of `len` elements, or an empty slice for an
/// unused (empty) plane.
#[inline]
fn sliver(buf: &[f32], idx: usize, len: usize) -> &[f32] {
    sliver_span(buf, idx, len, 1)
}

/// `take` consecutive packed slivers starting at `idx` as one slice
/// (slivers are contiguous at stride `len`), or an empty slice for an
/// unused (empty) plane.
#[inline]
fn sliver_span(buf: &[f32], idx: usize, len: usize, take: usize) -> &[f32] {
    if buf.is_empty() {
        &[]
    } else {
        &buf[idx * len..(idx + take) * len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emulation::emulated_gemm_entrywise;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const SCHEMES: [EmulationScheme; 4] = [
        EmulationScheme::EgemmTc,
        EmulationScheme::Markidis,
        EmulationScheme::MarkidisFourTerm,
        EmulationScheme::TcHalf,
    ];

    fn split_pair(
        m: usize,
        k: usize,
        n: usize,
        scheme: EmulationScheme,
        seed: u64,
    ) -> (SplitMatrix, SplitMatrix) {
        let a = Matrix::<f32>::random_uniform(m, k, seed);
        let b = Matrix::<f32>::random_uniform(k, n, seed + 1);
        (
            SplitMatrix::split(&a, scheme.split_scheme()),
            SplitMatrix::split(&b, scheme.split_scheme()),
        )
    }

    /// Tiny tiles force interior and edge paths on small shapes.
    fn tight() -> EngineConfig {
        EngineConfig {
            mc: 5,
            nc: 9,
            kc: 7,
            threads: 2,
            ..Default::default()
        }
    }

    /// Execute a full-product plan on the global runtime.
    fn run(
        a: Operand<'_>,
        b: BOperand<'_>,
        c: Option<&Matrix<f32>>,
        scheme: EmulationScheme,
        tk: usize,
        cfg: EngineConfig,
    ) -> Matrix<f32> {
        let plan = GemmPlan {
            c,
            ..GemmPlan::new(a, b, scheme, tk, cfg)
        };
        execute(EngineRuntime::global(), &plan)
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
            let (sa, sb) = split_pair(11, 29, 13, scheme, 7);
            let c = Matrix::<f32>::random_uniform(11, 13, 77);
            for tk in [4usize, 8, 16] {
                let d = run(
                    Operand::Split(&sa),
                    BOperand::Split(&sb),
                    Some(&c),
                    scheme,
                    tk,
                    tight(),
                );
                for i in 0..11 {
                    for j in 0..13 {
                        let mut want = c.get(i, j);
                        let mut kt = 0;
                        while kt < 29 {
                            let chunk = tk.min(29 - kt);
                            for &(al, bl) in scheme.terms() {
                                let ap = sa.plane(al);
                                let bp = sb.plane(bl);
                                for kk in kt..kt + chunk {
                                    want += ap[i * 29 + kk] * bp[kk * 13 + j];
                                }
                            }
                            kt += chunk;
                        }
                        assert_eq!(
                            d.get(i, j).to_bits(),
                            want.to_bits(),
                            "{scheme:?} tk={tk} ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn default_config_matches_oracle() {
        let scheme = EmulationScheme::EgemmTc;
        let (sa, sb) = split_pair(10, 40, 12, scheme, 3);
        let d = run(
            Operand::Split(&sa),
            BOperand::Split(&sb),
            None,
            scheme,
            8,
            EngineConfig::default(),
        );
        for &(i, j) in &[(0usize, 0usize), (9, 11), (4, 7)] {
            let e = emulated_gemm_entrywise(&sa, &sb, None, scheme, i, j);
            assert_eq!(d.get(i, j).to_bits(), e.to_bits());
        }
    }

    #[test]
    fn degenerate_shapes() {
        let scheme = EmulationScheme::EgemmTc;
        // 1 x k x 1.
        let (sa, sb) = split_pair(1, 17, 1, scheme, 9);
        let d = run(
            Operand::Split(&sa),
            BOperand::Split(&sb),
            None,
            scheme,
            8,
            tight(),
        );
        let e = emulated_gemm_entrywise(&sa, &sb, None, scheme, 0, 0);
        assert_eq!(d.get(0, 0).to_bits(), e.to_bits());
        // k = 0: output is C unchanged.
        let (sa0, sb0) = split_pair(3, 0, 4, scheme, 11);
        let c = Matrix::<f32>::random_uniform(3, 4, 13);
        let d0 = run(
            Operand::Split(&sa0),
            BOperand::Split(&sb0),
            Some(&c),
            scheme,
            8,
            tight(),
        );
        assert_eq!(d0.as_slice(), c.as_slice());
    }

    /// A row-sampled plan over split operands on the global runtime.
    fn run_rows(
        sa: &SplitMatrix,
        sb: &SplitMatrix,
        rows: &[usize],
        scheme: EmulationScheme,
    ) -> Matrix<f32> {
        let plan = GemmPlan {
            rows: Some(rows),
            ..GemmPlan::new(Operand::Split(sa), BOperand::Split(sb), scheme, 8, tight())
        };
        execute(EngineRuntime::global(), &plan)
    }

    #[test]
    fn rows_gather_matches_full() {
        let scheme = EmulationScheme::Markidis;
        let (sa, sb) = split_pair(23, 31, 10, scheme, 15);
        let full = run(
            Operand::Split(&sa),
            BOperand::Split(&sb),
            None,
            scheme,
            8,
            tight(),
        );
        let rows = [0usize, 2, 3, 9, 17, 22];
        let sampled = run_rows(&sa, &sb, &rows, scheme);
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
        let (sa, sb) = split_pair(4, 8, 4, scheme, 17);
        run_rows(&sa, &sb, &[0, 4], scheme);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rows_descending_rejected() {
        let scheme = EmulationScheme::EgemmTc;
        let (sa, sb) = split_pair(4, 8, 4, scheme, 17);
        run_rows(&sa, &sb, &[2, 1], scheme);
    }

    #[test]
    fn range_restarts_chunking_at_slice_start() {
        // A [k_lo, k_hi) slice must chunk from k_lo, like a fused kernel
        // run over the slice alone.
        let scheme = EmulationScheme::EgemmTc;
        let (sa, sb) = split_pair(6, 37, 5, scheme, 19);
        let (k_lo, k_hi, tk) = (13usize, 30usize, 8usize);
        let plan = GemmPlan {
            k_range: Some(k_lo..k_hi),
            ..GemmPlan::new(
                Operand::Split(&sa),
                BOperand::Split(&sb),
                scheme,
                tk,
                tight(),
            )
        };
        let d = execute(EngineRuntime::global(), &plan);
        for i in 0..6 {
            for j in 0..5 {
                let mut want = 0f32;
                let mut kt = k_lo;
                while kt < k_hi {
                    let chunk = tk.min(k_hi - kt);
                    for &(al, bl) in scheme.terms() {
                        let ap = sa.plane(al);
                        let bp = sb.plane(bl);
                        for kk in kt..kt + chunk {
                            want += ap[i * 37 + kk] * bp[kk * 5 + j];
                        }
                    }
                    kt += chunk;
                }
                assert_eq!(d.get(i, j).to_bits(), want.to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_bits() {
        let scheme = EmulationScheme::EgemmTc;
        let (sa, sb) = split_pair(33, 48, 21, scheme, 23);
        let with = |threads| {
            let cfg = EngineConfig { threads, ..tight() };
            run(
                Operand::Split(&sa),
                BOperand::Split(&sb),
                None,
                scheme,
                8,
                cfg,
            )
        };
        assert_bits_eq(&with(4), &with(1), "threads 4 vs 1");
    }

    #[test]
    fn prepared_b_path_bit_identical() {
        let rt = EngineRuntime::new(RuntimeConfig {
            threads: 2,
            ..Default::default()
        });
        for scheme in SCHEMES {
            let a = Matrix::<f32>::random_uniform(11, 29, 41);
            let b = Matrix::<f32>::random_uniform(29, 13, 43);
            let sa = SplitMatrix::split(&a, scheme.split_scheme());
            let sb = SplitMatrix::split(&b, scheme.split_scheme());
            let c = Matrix::<f32>::random_uniform(11, 13, 45);
            for tk in [4usize, 8] {
                let baseline = run(
                    Operand::Split(&sa),
                    BOperand::Split(&sb),
                    Some(&c),
                    scheme,
                    tk,
                    tight(),
                );
                let pb = prepare_b(&rt, &b, scheme.split_scheme(), tk, tight());
                let plan = GemmPlan {
                    c: Some(&c),
                    ..GemmPlan::new(
                        Operand::Split(&sa),
                        BOperand::Prepared(&pb),
                        scheme,
                        tk,
                        tight(),
                    )
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
        let plan = GemmPlan::new(Operand::Raw(&a), BOperand::Prepared(&pb), scheme, 8, other);
        execute(&rt, &plan);
    }

    #[test]
    fn fused_entry_bit_identical_to_staged() {
        // Raw operands (split per tile inside the pack) against the same
        // operands handed in as split planes.
        for scheme in SCHEMES {
            let a = Matrix::<f32>::random_uniform(11, 29, 61);
            let b = Matrix::<f32>::random_uniform(29, 13, 63);
            let sa = SplitMatrix::split(&a, scheme.split_scheme());
            let sb = SplitMatrix::split(&b, scheme.split_scheme());
            let c = Matrix::<f32>::random_uniform(11, 13, 65);
            for tk in [4usize, 8] {
                let split = run(
                    Operand::Split(&sa),
                    BOperand::Split(&sb),
                    Some(&c),
                    scheme,
                    tk,
                    tight(),
                );
                let raw = run(
                    Operand::Raw(&a),
                    BOperand::Raw(&b),
                    Some(&c),
                    scheme,
                    tk,
                    tight(),
                );
                assert_bits_eq(&raw, &split, &format!("{scheme:?} tk={tk}"));
            }
        }
    }

    #[test]
    fn fused_range_restarts_chunking_like_staged() {
        // Split-K chunk boundaries land identically whether the slice's
        // operand elements were split ahead of time or on the fly.
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
            let ranged = |a, b| {
                let plan = GemmPlan {
                    k_range: Some(k_lo..k_hi),
                    ..GemmPlan::new(a, b, scheme, 8, tight())
                };
                execute(&rt, &plan)
            };
            let split = ranged(Operand::Split(&sa), BOperand::Split(&sb));
            let raw = ranged(Operand::Raw(&a), BOperand::Raw(&b));
            assert_bits_eq(&raw, &split, &format!("[{k_lo}, {k_hi})"));
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
            let baseline = run(
                Operand::Split(&sa),
                BOperand::Split(&sb),
                Some(&c),
                scheme,
                8,
                tight(),
            );
            let pb = prepare_b(&rt, &b, scheme.split_scheme(), 8, tight());
            let plan = GemmPlan {
                c: Some(&c),
                ..GemmPlan::new(
                    Operand::Raw(&a),
                    BOperand::Prepared(&pb),
                    scheme,
                    8,
                    tight(),
                )
            };
            assert_bits_eq(&execute(&rt, &plan), &baseline, &format!("{scheme:?}"));
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
        let sa_trunc = SplitMatrix::split(&a, SplitScheme::Truncate);
        let sb_trunc = SplitMatrix::split(&b, SplitScheme::Truncate);
        let c_bad = Matrix::<f32>::zeros(5, 5);
        let c_full = Matrix::<f32>::zeros(6, 5);
        let cfg = tight(); // kc clamps to 8 under tk = 8
        let pb = prepare_b(&rt, &b, scheme.split_scheme(), 8, cfg);
        let pb_trunc = prepare_b(&rt, &b, SplitScheme::Truncate, 8, cfg);
        let pb_kc16 = prepare_b(
            &rt,
            &b,
            scheme.split_scheme(),
            8,
            EngineConfig { kc: 16, ..cfg },
        );
        let base = || GemmPlan::new(Operand::Raw(&a), BOperand::Raw(&b), scheme, 8, cfg);
        let prepared = |b| GemmPlan::new(Operand::Raw(&a), b, scheme, 8, cfg);
        let cases: Vec<(GemmPlan<'_>, &str)> = vec![
            (
                GemmPlan {
                    b: BOperand::Raw(&b_short),
                    ..base()
                },
                "inner dimensions disagree",
            ),
            (
                GemmPlan {
                    a: Operand::Split(&sa_trunc),
                    ..base()
                },
                "A split scheme mismatch",
            ),
            (
                GemmPlan {
                    b: BOperand::Split(&sb_trunc),
                    ..base()
                },
                "B split scheme mismatch",
            ),
            (
                prepared(BOperand::Prepared(&pb_trunc)),
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
                    k_range: Some(0..8),
                    ..prepared(BOperand::Prepared(&pb))
                },
                "prepacked B requires a full k range",
            ),
            (
                prepared(BOperand::Prepared(&pb_kc16)),
                "prepacked panel depth disagrees",
            ),
            (
                // An empty A used to return before the kc check ran.
                GemmPlan {
                    a: Operand::Raw(&empty_a),
                    ..prepared(BOperand::Prepared(&pb_kc16))
                },
                "prepacked panel depth disagrees",
            ),
            (
                GemmPlan {
                    rows: Some(&[]),
                    ..prepared(BOperand::Prepared(&pb_kc16))
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
        // The valid neighbours of those plans run.
        assert_eq!(execute(&rt, &base()).rows(), 6);
        let empty = GemmPlan {
            a: Operand::Raw(&empty_a),
            ..prepared(BOperand::Prepared(&pb))
        };
        assert_eq!(execute(&rt, &empty).rows(), 0);
    }

    #[test]
    fn explicit_threads_override_env() {
        assert_eq!(
            EngineConfig {
                threads: 3,
                ..Default::default()
            }
            .resolved_threads(),
            3
        );
        assert!(EngineConfig::default().resolved_threads() >= 1);
    }
}
