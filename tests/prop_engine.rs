//! Property-based bit-identity tests of the blocked execution engine.
//!
//! The engine (crates/core/src/engine) may block, pack, and parallelize
//! however it likes, but per output element it must replay *exactly* the
//! profiled Tensor-Core accumulation order. These properties compare it
//! against an independent scalar replay (and the crate's entrywise
//! oracle) with `to_bits` equality — zero tolerance — across all four
//! schemes, `tk` in {4, 8, 16}, and adversarial shapes: 1 x k x 1,
//! non-multiples of every tile size, m << n and m >> n.

use egemm::{
    emulated_gemm_entrywise, emulated_gemm_rows, execute, prepare_b, prepare_b_rows, Egemm,
    EmulationScheme, EngineConfig, EngineRuntime, GemmPlan, KernelOpts, PreparedOperand,
    RuntimeConfig, SplitMatrix, TilingConfig,
};
use egemm_matrix::Matrix;
use egemm_tcsim::DeviceSpec;
use proptest::prelude::*;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

const SCHEMES: [EmulationScheme; 4] = [
    EmulationScheme::EgemmTc,
    EmulationScheme::Markidis,
    EmulationScheme::MarkidisFourTerm,
    EmulationScheme::TcHalf,
];

/// Scalar replay of the accumulation contract with an explicit `tk` and
/// k range, for every output element: `C` (or zero), then ascending k in
/// `tk` chunks from `ks.start`, scheme terms in issue order per chunk,
/// one separate binary32 multiply and add per product.
fn entrywise_tk(
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
            for &(a_lo, b_lo) in scheme.terms() {
                let ap = sa.plane(a_lo);
                let bp = sb.plane(b_lo);
                for kk in kt..kt + chunk {
                    acc += ap[i * k + kk] * bp[kk * n + j];
                }
            }
            kt += chunk;
        }
        acc
    })
}

/// The bit patterns of `d`, for zero-tolerance comparisons.
fn bits(d: &Matrix<f32>) -> Vec<u32> {
    d.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// A private runtime of `threads` workers (at most 8), built once per
/// width and shared across tests and proptest cases.
fn pool(threads: usize) -> &'static Arc<EngineRuntime> {
    static POOLS: [OnceLock<Arc<EngineRuntime>>; 9] = [const { OnceLock::new() }; 9];
    POOLS[threads].get_or_init(|| {
        EngineRuntime::new(RuntimeConfig {
            threads,
            ..Default::default()
        })
    })
}

/// Run `plan` on the shared runtime of `threads` workers.
fn run(threads: usize, plan: GemmPlan<'_>) -> Matrix<f32> {
    execute(pool(threads), &plan)
}

/// Rows `rows` of the raw `b`, prepared for `scheme`/`tk`/`cfg` past
/// the cache on the shared runtime of `threads` workers.
fn rows_b(
    threads: usize,
    b: &Matrix<f32>,
    rows: Range<usize>,
    scheme: EmulationScheme,
    tk: usize,
    cfg: EngineConfig,
) -> PreparedOperand {
    prepare_b_rows(pool(threads), b, rows, scheme.split_scheme(), tk, cfg)
}

/// Raw `m x k` and `k x n` operands drawn from `seed`, and their splits
/// under `scheme` for the replay and the oracle.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random shapes, schemes, tk, and blocking configs: every output
    /// element bit-equals the scalar replay.
    #[test]
    fn blocked_engine_bit_identical(
        m in 1usize..20,
        k in 1usize..40,
        n in 1usize..20,
        tk_idx in 0usize..3,
        scheme_idx in 0usize..4,
        mc in 1usize..12,
        nc in 1usize..24,
        kc in 1usize..32,
        threads in 1usize..4,
        seed in 0u64..1000,
        with_c in proptest::strategy::any::<bool>(),
    ) {
        let scheme = SCHEMES[scheme_idx];
        let tk = [4usize, 8, 16][tk_idx];
        let (a, b, sa, sb) = operands(m, k, n, scheme, seed);
        let c = Matrix::<f32>::random_uniform(m, n, seed + 2);
        let c_opt = if with_c { Some(&c) } else { None };
        let cfg = EngineConfig { mc, nc, kc };
        let pb = rows_b(threads, &b, 0..k, scheme, tk, cfg);
        let d = run(threads, GemmPlan { c: c_opt, ..GemmPlan::new(&a, &pb, scheme, tk, cfg) });
        let want = entrywise_tk(&sa, &sb, c_opt, scheme, tk, 0..k);
        prop_assert_eq!(bits(&d), bits(&want), "{:?} tk={}", scheme, tk);
    }

    /// Split-K slices chunk from the slice start and stay bit-identical.
    #[test]
    fn blocked_range_bit_identical(
        k in 2usize..48,
        cut_num in 1usize..8,
        tk_idx in 0usize..3,
        scheme_idx in 0usize..4,
        seed in 0u64..1000,
    ) {
        let scheme = SCHEMES[scheme_idx];
        let tk = [4usize, 8, 16][tk_idx];
        let (m, n) = (5usize, 7usize);
        let (a, b, sa, sb) = operands(m, k, n, scheme, seed);
        let k_lo = (cut_num * k / 8).min(k - 1);
        let cfg = EngineConfig { mc: 3, nc: 5, kc: 9 };
        let pb = rows_b(2, &b, k_lo..k, scheme, tk, cfg);
        let d = run(2, GemmPlan { k_range: Some(k_lo..k), ..GemmPlan::new(&a, &pb, scheme, tk, cfg) });
        let want = entrywise_tk(&sa, &sb, None, scheme, tk, k_lo..k);
        prop_assert_eq!(bits(&d), bits(&want));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The fused split-and-pack path (raw f32 operands: A split per tile
    /// inside the pack, B split while it is prepared) bit-equals the
    /// scalar replay: random (non-tile-multiple) shapes, all four schemes
    /// (covering both split schemes), pool sizes 1 and 4, full products
    /// and split-K slices starting mid-operand, with and without C.
    #[test]
    fn fused_pipeline_bit_identical_to_entrywise(
        m in 1usize..24,
        k in 2usize..48,
        n in 1usize..28,
        scheme_idx in 0usize..4,
        threads_idx in 0usize..2,
        cut_num in 0usize..8,
        tk_idx in 0usize..3,
        seed in 0u64..1000,
        with_c in proptest::strategy::any::<bool>(),
    ) {
        let scheme = SCHEMES[scheme_idx];
        let tk = [4usize, 8, 16][tk_idx];
        let threads = [1usize, 4][threads_idx];
        let a = Matrix::<f32>::random_uniform(m, k, seed);
        let b = Matrix::<f32>::random_uniform(k, n, seed + 1);
        let c = Matrix::<f32>::random_uniform(m, n, seed + 2);
        let c_opt = if with_c { Some(&c) } else { None };
        let sa = SplitMatrix::split(&a, scheme.split_scheme());
        let sb = SplitMatrix::split(&b, scheme.split_scheme());
        let cfg = EngineConfig { mc: 5, nc: 9, kc: 12 };
        let pb = prepare_b(pool(threads), &b, scheme.split_scheme(), tk, cfg);
        let raw = GemmPlan {
            c: c_opt,
            ..GemmPlan::new(&a, &pb, scheme, tk, cfg)
        };

        // Full product.
        let got = run(threads, raw.clone());
        let want = entrywise_tk(&sa, &sb, c_opt, scheme, tk, 0..k);
        prop_assert_eq!(
            bits(&got), bits(&want),
            "fused full product diverged ({:?}, tk={}, threads={})",
            scheme, tk, threads
        );

        // Split-K slice: chunking restarts at k_lo.
        let k_lo = (cut_num * k / 8).min(k - 1);
        let rt = EngineRuntime::new(RuntimeConfig { threads, cache_bytes: 0 });
        let pb_r = prepare_b_rows(&rt, &b, k_lo..k, scheme.split_scheme(), tk, cfg);
        let got_r = execute(&rt, &GemmPlan { k_range: Some(k_lo..k), b: &pb_r, ..raw });
        let want_r = entrywise_tk(&sa, &sb, c_opt, scheme, tk, k_lo..k);
        prop_assert_eq!(
            bits(&got_r), bits(&want_r),
            "fused slice diverged ({:?}, tk={}, k_lo={})",
            scheme, tk, k_lo
        );
    }

    /// The public `Egemm` front ends — gemm, prepared handles, split-K —
    /// bit-equal the scalar replay at pool sizes 1 and 4.
    #[test]
    fn public_api_bit_identical_to_entrywise(
        m in 1usize..16,
        k in 2usize..32,
        n in 1usize..16,
        scheme_idx in 0usize..4,
        slices in 1usize..4,
        seed in 0u64..1000,
    ) {
        let scheme = SCHEMES[scheme_idx];
        let tk = TilingConfig::TC.k;
        let a = Matrix::<f32>::random_uniform(m, k, seed);
        let b = Matrix::<f32>::random_uniform(k, n, seed + 1);
        let sa = SplitMatrix::split(&a, scheme.split_scheme());
        let sb = SplitMatrix::split(&b, scheme.split_scheme());
        let want = bits(&entrywise_tk(&sa, &sb, None, scheme, tk, 0..k));
        // Split-K: per-slice replays reduced in ascending-slice order
        // into zeros, exactly as the front end reduces its partials.
        let s = slices.min(k);
        let mut want_sk = Matrix::<f32>::zeros(m, n);
        for i in 0..s {
            let p = entrywise_tk(&sa, &sb, None, scheme, tk, k * i / s..k * (i + 1) / s);
            for (acc, &x) in want_sk.as_mut_slice().iter_mut().zip(p.as_slice()) {
                *acc += x;
            }
        }
        for threads in [1usize, 4] {
            let eg = egemm_on(scheme, RuntimeConfig { threads, ..Default::default() });
            prop_assert_eq!(bits(&eg.gemm(&a, &b).d), want.clone(), "gemm (threads={})", threads);
            let pb = eg.prepare(&b);
            let d_prep = eg.gemm_prepared(&a, &pb, None).d;
            prop_assert_eq!(bits(&d_prep), want.clone(), "prepared (threads={})", threads);
            let d_sk = eg.gemm_split_k(&a, &b, s).d;
            prop_assert_eq!(
                bits(&d_sk), bits(&want_sk),
                "split-k s={} (threads={})", s, threads
            );
        }
    }
}

/// An `Egemm` on a fresh private runtime (so cache counters and pool
/// width are isolated from other tests in this process).
fn egemm_on(scheme: EmulationScheme, cfg: RuntimeConfig) -> Egemm {
    Egemm::new(DeviceSpec::t4(), TilingConfig::T4_PAPER)
        .with_scheme(scheme)
        .with_runtime(EngineRuntime::new(cfg))
}

/// The uncached reference path: no caching, single thread.
fn cold_reference(scheme: EmulationScheme) -> Egemm {
    egemm_on(
        scheme,
        RuntimeConfig {
            threads: 1,
            cache_bytes: 0,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cache-miss, cache-hit, and prepared-handle paths are all bitwise
    /// identical to the uncached path, at pool sizes 1 and 4.
    #[test]
    fn cached_paths_bit_identical_to_uncached(
        m in 1usize..16,
        k in 1usize..32,
        n in 1usize..16,
        scheme_idx in 0usize..4,
        seed in 0u64..1000,
    ) {
        let scheme = SCHEMES[scheme_idx];
        let a = Matrix::<f32>::random_uniform(m, k, seed);
        let b = Matrix::<f32>::random_uniform(k, n, seed + 1);
        let want = cold_reference(scheme).gemm(&a, &b).d;
        for threads in [1usize, 4] {
            let eg = egemm_on(scheme, RuntimeConfig { threads, ..Default::default() });
            let miss = eg.gemm(&a, &b).d; // cold cache: B misses
            let hit = eg.gemm(&a, &b).d; // warm cache: B hits
            let pb = eg.prepare(&b);
            let prepared = eg.gemm_prepared(&a, &pb, None).d;
            let prepared_again = eg.gemm_prepared(&a, &pb, None).d;
            for (name, d) in [
                ("miss", &miss),
                ("hit", &hit),
                ("prepared", &prepared),
                ("prepared_again", &prepared_again),
            ] {
                for (x, y) in d.as_slice().iter().zip(want.as_slice()) {
                    prop_assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{} path diverged ({:?}, threads={})",
                        name,
                        scheme,
                        threads
                    );
                }
            }
            let s = eg.runtime().cache_stats();
            prop_assert!(s.hits >= 2, "warm lookups of B must hit: {:?}", s);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A cache bound of one or two of the largest packs makes cold Bs
    /// evict, and an evicted pack nobody holds lends its planes to the
    /// next pack, cut down when the next B is smaller. Streaming three
    /// large Bs then three smaller ones, with the prepared handles of
    /// some held to the end, stays bitwise identical to the uncached
    /// path at pool sizes 1 and 4, and so do the held handles after
    /// every later eviction.
    #[test]
    fn evicted_planes_reused_bit_identical(
        m in 1usize..12,
        big in (16usize..96, 16usize..96),
        small in (1usize..16, 1usize..96),
        held in any::<u8>(),
        slots in 1usize..3,
        scheme_idx in 0usize..4,
        seed in 0u64..1000,
    ) {
        let scheme = SCHEMES[scheme_idx];
        let cold = cold_reference(scheme);
        let shapes = [big, big, big, small, small, small];
        let bs: Vec<Matrix<f32>> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(k, n))| Matrix::<f32>::random_uniform(k, n, seed + i as u64))
            .collect();
        let cache_bytes = slots * cold.prepare(&bs[0]).bytes();
        for threads in [1usize, 4] {
            let eg = egemm_on(scheme, RuntimeConfig { threads, cache_bytes });
            let mut pinned = Vec::new();
            for (i, b) in bs.iter().enumerate() {
                let a = Matrix::<f32>::random_uniform(m, b.rows(), seed + 100 + i as u64);
                let d = if held >> i & 1 == 1 {
                    let h = eg.prepare(b);
                    let d = eg.gemm_prepared(&a, &h, None).d;
                    pinned.push((a.clone(), i, h));
                    d
                } else {
                    eg.gemm(&a, b).d
                };
                prop_assert_eq!(
                    bits(&d),
                    bits(&cold.gemm(&a, b).d),
                    "B {} diverged ({:?}, threads={})",
                    i,
                    scheme,
                    threads
                );
            }
            for (a, i, h) in &pinned {
                prop_assert_eq!(
                    bits(&eg.gemm_prepared(a, h, None).d),
                    bits(&cold.gemm(a, &bs[*i]).d),
                    "held B {} diverged after later packs ({:?}, threads={})",
                    i,
                    scheme,
                    threads
                );
            }
            let s = eg.runtime().cache_stats();
            prop_assert!(s.evictions >= 1, "the third large B must evict: {:?}", s);
            prop_assert!(s.bytes <= cache_bytes as u64, "over the bound: {:?}", s);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Work-stealing pool sizes 2/4/8 under deliberately tiny blocking
    /// (many tiles per worker, so idle workers must steal, and many B
    /// panels per prepare, so the pool packs them in parallel) bit-equal
    /// the scalar replay across the uncached and cached prepared-B and
    /// split-K paths.
    #[test]
    fn pool_sizes_bit_identical_under_tiny_blocking(
        m in 1usize..32,
        k in 2usize..40,
        n in 1usize..36,
        scheme_idx in 0usize..4,
        cut_num in 0usize..8,
        seed in 0u64..1000,
    ) {
        let scheme = SCHEMES[scheme_idx];
        let tk = 8usize;
        let (a, b, sa, sb) = operands(m, k, n, scheme, seed);
        let k_lo = (cut_num * k / 8).min(k - 1);
        let want = bits(&entrywise_tk(&sa, &sb, None, scheme, tk, 0..k));
        let want_range = bits(&entrywise_tk(&sa, &sb, None, scheme, tk, k_lo..k));

        for threads in [2usize, 4, 8] {
            let cfg = EngineConfig { mc: 5, nc: 9, kc: 7 };
            let pb_raw = rows_b(threads, &b, 0..k, scheme, tk, cfg);
            let raw = GemmPlan::new(&a, &pb_raw, scheme, tk, cfg);
            let fused = bits(&run(threads, raw.clone()));
            prop_assert_eq!(&fused, &want, "fused diverged (threads={})", threads);

            let rt = EngineRuntime::new(RuntimeConfig { threads, cache_bytes: 0 });
            let pb = prepare_b(&rt, &b, scheme.split_scheme(), tk, cfg);
            let prepared = GemmPlan::new(&a, &pb, scheme, tk, cfg);
            let prepared = bits(&execute(&rt, &prepared));
            prop_assert_eq!(&prepared, &want, "prepared-B diverged (threads={})", threads);

            let pb_slice = rows_b(threads, &b, k_lo..k, scheme, tk, cfg);
            let slice = GemmPlan { k_range: Some(k_lo..k), b: &pb_slice, ..raw };
            let ranged = bits(&run(threads, slice));
            prop_assert_eq!(&ranged, &want_range, "split-K diverged (threads={})", threads);
        }
    }
}

#[test]
fn prepare_packs_each_b_once_per_cold_call() {
    // Every B is packed whole before the tile grid, one k panel per
    // claim on the pool: a cold call packs its B exactly once, whatever
    // the pool size, and a warm repeat reads the cached pack. mc=5 /
    // nc=16 / kc=8 with tk=8 are already legal (no clamping), so a
    // 23x29x31 product has a 5x2 tile grid over 4 k panels.
    let scheme = EmulationScheme::EgemmTc;
    let a = Matrix::<f32>::random_uniform(23, 29, 55);
    let b = Matrix::<f32>::random_uniform(29, 31, 56);
    let opts = KernelOpts {
        engine: EngineConfig {
            mc: 5,
            nc: 16,
            kc: 8,
        },
        ..KernelOpts::default()
    };
    let mut outputs = Vec::new();
    for threads in [1usize, 2, 4] {
        let eg = egemm_on(
            scheme,
            RuntimeConfig {
                threads,
                ..Default::default()
            },
        )
        .with_opts(opts);
        for call in ["cold", "warm"] {
            let before = eg.runtime().cache_stats().packs;
            let d = eg.gemm(&a, &b).d;
            let packs = eg.runtime().cache_stats().packs - before;
            let want = u64::from(call == "cold");
            assert_eq!(packs, want, "threads={threads} {call}: B packs");
            outputs.push((threads, call, bits(&d)));
        }
    }
    for (threads, call, d) in &outputs {
        assert_eq!(d, &outputs[0].2, "threads={threads} {call} diverged");
    }
}

#[test]
fn mutated_operand_misses_and_follows_new_data() {
    let scheme = EmulationScheme::EgemmTc;
    let eg = egemm_on(scheme, RuntimeConfig::default());
    let a = Matrix::<f32>::random_uniform(9, 21, 77);
    let mut b = Matrix::<f32>::random_uniform(21, 11, 78);
    let pb_old = eg.prepare(&b);
    let d1 = eg.gemm(&a, &b).d;
    let misses_before = eg.runtime().cache_stats().misses;

    // Mutate one element of B: the content fingerprint must change, so
    // the lookup misses and the result follows the new data.
    let s = b.as_mut_slice();
    s[5] += 1.0;
    let d2 = eg.gemm(&a, &b).d;
    assert!(
        eg.runtime().cache_stats().misses > misses_before,
        "mutated operand must miss the cache"
    );
    let want = cold_reference(scheme).gemm(&a, &b).d;
    for (x, y) in d2.as_slice().iter().zip(want.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "stale data served after mutation");
    }

    // The handle prepared before the mutation pins the *old* data: it
    // still reproduces the original result, eviction or not.
    let d1_again = eg.gemm_prepared(&a, &pb_old, None).d;
    for (x, y) in d1_again.as_slice().iter().zip(d1.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "prepared handle lost its data");
    }
}

#[test]
fn adversarial_shapes_bit_identical() {
    // 1 x k x 1, tile-size non-multiples, m << n, m >> n — every scheme,
    // every tk, checked against the crate's entrywise oracle where
    // tk = 8 (its fixed chunk depth) and the scalar replay otherwise.
    let shapes = [
        (1usize, 19usize, 1usize),
        (7, 13, 11),
        (2, 37, 64),
        (64, 21, 2),
    ];
    for scheme in SCHEMES {
        for (m, k, n) in shapes {
            let (a, b, sa, sb) = operands(m, k, n, scheme, 0xC0FFEE);
            for tk in [4usize, 8, 16] {
                let cfg = EngineConfig {
                    mc: 5,
                    nc: 9,
                    kc: 12,
                };
                let pb = rows_b(2, &b, 0..k, scheme, tk, cfg);
                let d = run(2, GemmPlan::new(&a, &pb, scheme, tk, cfg));
                let replay = entrywise_tk(&sa, &sb, None, scheme, tk, 0..k);
                for i in 0..m {
                    for j in 0..n {
                        let want = replay.get(i, j);
                        assert_eq!(
                            d.get(i, j).to_bits(),
                            want.to_bits(),
                            "{scheme:?} {m}x{k}x{n} tk={tk} ({i},{j})"
                        );
                        if tk == 8 {
                            let oracle = emulated_gemm_entrywise(&sa, &sb, None, scheme, i, j);
                            assert_eq!(d.get(i, j).to_bits(), oracle.to_bits());
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn gemm_with_c_accumulation_regression() {
    // The public API path (split + engine + C seed) bit-matches the
    // entrywise oracle with the same C.
    let eg = Egemm::auto(DeviceSpec::t4());
    let a = Matrix::<f32>::random_uniform(18, 27, 5);
    let b = Matrix::<f32>::random_uniform(27, 14, 6);
    let c = Matrix::<f32>::random_uniform(18, 14, 7);
    let sa = SplitMatrix::split(&a, eg.scheme.split_scheme());
    let sb = SplitMatrix::split(&b, eg.scheme.split_scheme());
    let out = eg.gemm_with_c(&a, &b, Some(&c));
    for i in 0..18 {
        for j in 0..14 {
            let want = emulated_gemm_entrywise(&sa, &sb, Some(&c), eg.scheme, i, j);
            assert_eq!(out.d.get(i, j).to_bits(), want.to_bits(), "({i},{j})");
        }
    }
}

#[test]
fn row_sampling_validates_upfront() {
    let scheme = EmulationScheme::EgemmTc;
    let (a, b, _, _) = operands(6, 8, 4, scheme, 9);
    // Valid ascending sample works and bit-matches the full product.
    let full = egemm::emulated_gemm(&a, &b, None, scheme);
    let sampled = emulated_gemm_rows(&a, &b, &[1, 4, 5], scheme);
    for (ri, &r) in [1usize, 4, 5].iter().enumerate() {
        for j in 0..4 {
            assert_eq!(sampled.get(ri, j).to_bits(), full.get(r, j).to_bits());
        }
    }
    // Out-of-range and unsorted inputs fail fast with clear messages.
    let oob = std::panic::catch_unwind(|| emulated_gemm_rows(&a, &b, &[6], scheme));
    let msg = *oob.unwrap_err().downcast::<String>().unwrap();
    assert!(msg.contains("out of range"), "{msg}");
    let dup = std::panic::catch_unwind(|| emulated_gemm_rows(&a, &b, &[2, 2], scheme));
    let msg = *dup.unwrap_err().downcast::<String>().unwrap();
    assert!(msg.contains("strictly ascending"), "{msg}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// JIT-dispatched execution bit-equals the scalar replay across
    /// schemes, pool sizes, split-K offsets, and ragged shapes: the
    /// end-to-end check that compiled kernels are drop-in replacements.
    /// Under `EGEMM_JIT=0`, or on hosts without a JIT backend, the same
    /// property checks the interpreter.
    #[test]
    fn jit_bit_identical_to_interpreted(
        m in 1usize..24,
        k in 1usize..48,
        n in 1usize..40,
        scheme_idx in 0usize..4,
        tk_idx in 0usize..3,
        pool_idx in 0usize..2,
        cut_num in 0usize..8,
        seed in 0u64..1000,
    ) {
        let scheme = SCHEMES[scheme_idx];
        let tk = [4usize, 8, 16][tk_idx];
        let threads = [1usize, 4][pool_idx];
        let (a, b, sa, sb) = operands(m, k, n, scheme, seed);
        let cfg = EngineConfig { mc: 8, nc: 32, kc: 16 };

        let pb = rows_b(threads, &b, 0..k, scheme, tk, cfg);
        let d = run(threads, GemmPlan::new(&a, &pb, scheme, tk, cfg));
        prop_assert_eq!(
            bits(&d), bits(&entrywise_tk(&sa, &sb, None, scheme, tk, 0..k)),
            "{:?} {}x{}x{} tk={} threads={}", scheme, m, k, n, tk, threads
        );

        // Split-K slice: kernels bake the panel depth, so an offset
        // range exercises short first/last panels under the JIT too.
        let k_lo = (cut_num * k / 8).min(k - 1);
        let pb_r = rows_b(threads, &b, k_lo..k, scheme, tk, cfg);
        let ranged = run(threads, GemmPlan { k_range: Some(k_lo..k), ..GemmPlan::new(&a, &pb_r, scheme, tk, cfg) });
        prop_assert_eq!(
            bits(&ranged), bits(&entrywise_tk(&sa, &sb, None, scheme, tk, k_lo..k)),
            "range [{}..{}) {:?} tk={} threads={}", k_lo, k, scheme, tk, threads
        );
    }
}

/// Run `MarkidisFourTerm` (the most term planes) with chunk depth `tk`
/// over every column residue a tile can end with, on `rt`, and check
/// each output against the scalar replay: widths 1..=16 cover all
/// single-strip (AVX) edge masks, 17..=32 all dual-strip (AVX-512)
/// masks, 33 a dual-strip pair plus a lone ragged strip. Row counts
/// cycle 1..=12 alongside, in 12-row tiles: on AVX-512 hosts a tile
/// runs a pair of row blocks (5..=8 rows) and then a lone block
/// (1..=4 rows), and the dual-strip widths meet every row residue of
/// both.
fn edge_sweep(rt: &EngineRuntime, tk: usize, k: usize, kc: usize) {
    let scheme = EmulationScheme::MarkidisFourTerm;
    for n in 1usize..=33 {
        let m = (n - 1) % 12 + 1;
        let (a, b, sa, sb) = operands(m, k, n, scheme, n as u64);
        let cfg = EngineConfig { mc: 12, nc: 64, kc };
        let pb = prepare_b_rows(rt, &b, 0..k, scheme.split_scheme(), tk, cfg);
        let d = execute(rt, &GemmPlan::new(&a, &pb, scheme, tk, cfg));
        let want = entrywise_tk(&sa, &sb, None, scheme, tk, 0..k);
        assert_eq!(bits(&d), bits(&want), "edge sweep n={n} m={m} tk={tk}");
    }
}

#[test]
fn jit_edge_masks_bit_identical() {
    // k = 20 with kc = 16 gives one looped panel (two tk=8 chunks) and
    // one ragged-only panel (4 deep).
    edge_sweep(pool(1), 8, 20, 16);
}

#[test]
fn interpreted_fallback_under_active_jit_bit_identical() {
    // tk = 72 is past the deepest chunk the JIT specializes (64), so
    // every tile falls back to the interpreter even with the JIT on:
    // on AVX-512 hosts that includes interpreted dual-strip pairs over
    // two row blocks, their lone last block and their lone last strip.
    // k = 150 over kc = 144 leaves a ragged last panel. A private
    // runtime keeps the compile count its own.
    let rt = EngineRuntime::new(RuntimeConfig {
        threads: 1,
        ..Default::default()
    });
    edge_sweep(&rt, 72, 150, 144);
    assert_eq!(
        rt.cache_stats().jit_compiles,
        0,
        "tk = 72 compiled a kernel"
    );
}

#[test]
fn jit_cache_compiles_each_key_exactly_once() {
    // Same shapes, same runtime: the second call must be served
    // entirely by the compiled-kernel cache (and the per-worker memos)
    // without a single new compilation.
    let scheme = EmulationScheme::EgemmTc;
    let tk = 8usize;
    let (a, b, _, _) = operands(23, 29, 31, scheme, 91);
    let rt = EngineRuntime::new(RuntimeConfig {
        threads: 2,
        ..Default::default()
    });
    let cfg = EngineConfig {
        mc: 8,
        nc: 32,
        kc: 16,
    };
    let pb = prepare_b_rows(&rt, &b, 0..29, scheme.split_scheme(), tk, cfg);
    let d1 = execute(&rt, &GemmPlan::new(&a, &pb, scheme, tk, cfg));
    let after1 = rt.cache_stats();
    let d2 = execute(&rt, &GemmPlan::new(&a, &pb, scheme, tk, cfg));
    let after2 = rt.cache_stats();
    assert_eq!(
        after1.jit_compiles, after2.jit_compiles,
        "a repeat call with identical shape classes recompiled kernels"
    );
    if egemm::jit_available() {
        assert!(
            after1.jit_compiles > 0,
            "JIT available but nothing compiled"
        );
        assert!(
            after2.jit_hits > after1.jit_hits,
            "second call never hit the compiled-kernel cache"
        );
        assert!(after2.jit_code_bytes > 0 && after2.jit_compile_ns > 0);
    } else {
        assert_eq!(after1.jit_compiles, 0, "JIT unavailable but compiled");
    }
    for (x, y) in d1.as_slice().iter().zip(d2.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "cached kernels changed the bits");
    }
}

/// The values `special_values_keep_the_output_contract` plants: NaNs
/// with payloads (the last one signalling), ±Inf, ±65504, 65520
/// (overflows the round split's hi), 1e6, -3e38, the binary32
/// subnormals 0x1 and 0x807f_ffff, 2^-24 (the smallest binary16
/// subnormal) and ±0.
fn specials() -> [f32; 15] {
    [
        f32::from_bits(0x7fc0_0123),
        f32::from_bits(0xffc0_4567),
        f32::from_bits(0x7f80_0001),
        f32::INFINITY,
        f32::NEG_INFINITY,
        65504.0,
        -65504.0,
        65520.0,
        1e6,
        -3e38,
        f32::from_bits(0x0000_0001),
        f32::from_bits(0x807f_ffff),
        2f32.powi(-24),
        0.0,
        -0.0,
    ]
}

/// A uniform `rows x cols` matrix with every [`specials`] value
/// planted once, at positions drawn from `seed`.
fn with_specials(rows: usize, cols: usize, seed: u64) -> Matrix<f32> {
    let mut m = Matrix::<f32>::random_uniform(rows, cols, seed);
    let s = m.as_mut_slice();
    let mut state = seed;
    for x in specials() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let at = (state >> 33) as usize % s.len();
        s[at] = x;
    }
    m
}

#[test]
fn special_values_keep_the_output_contract() {
    // The output contract on non-finite, overflowing, subnormal and
    // signed-zero operands: every output where the entrywise oracle is
    // not NaN has the oracle's bits, and the output is NaN exactly
    // where the oracle is NaN (a NaN's sign and payload are
    // unspecified). All four schemes, ragged shapes over several k
    // panels, C absent and present, a raw A over a B prepared past the
    // cache and over a cached one; about 14k outputs in all. Under
    // 8-row tiles the last shape ends in a lone 3-row block, which
    // AVX-512 hosts run apart from the pairs of row blocks.
    let tk = 8usize; // the oracle's fixed chunk depth
    let cfg = EngineConfig {
        mc: 8,
        nc: 32,
        kc: 16,
    };
    let rt = EngineRuntime::new(RuntimeConfig {
        threads: 2,
        cache_bytes: 0,
    });
    let (mut nan, mut inf, mut compared) = (0usize, 0usize, 0usize);
    for scheme in SCHEMES {
        for (m, k, n) in [
            (13usize, 29usize, 17usize),
            (5, 40, 37),
            (30, 7, 9),
            (11, 13, 20),
        ] {
            let seed = (m * 1000 + n) as u64;
            let a = with_specials(m, k, seed);
            let b = with_specials(k, n, seed + 1);
            let c = with_specials(m, n, seed + 2);
            let sa = SplitMatrix::split(&a, scheme.split_scheme());
            let sb = SplitMatrix::split(&b, scheme.split_scheme());
            let pb = prepare_b(&rt, &b, scheme.split_scheme(), tk, cfg);
            let pb_rows = prepare_b_rows(&rt, &b, 0..k, scheme.split_scheme(), tk, cfg);
            for c_opt in [None, Some(&c)] {
                let uncached = GemmPlan::new(&a, &pb_rows, scheme, tk, cfg);
                let cached = GemmPlan::new(&a, &pb, scheme, tk, cfg);
                for (form, plan) in [("uncached B", uncached), ("cached B", cached)] {
                    let d = execute(&rt, &GemmPlan { c: c_opt, ..plan });
                    for i in 0..m {
                        for j in 0..n {
                            let want = emulated_gemm_entrywise(&sa, &sb, c_opt, scheme, i, j);
                            let got = d.get(i, j);
                            let ctx = || {
                                format!(
                                    "{scheme:?} {m}x{k}x{n} {form} c={} ({i},{j}): \
                                     got {:#010x}, oracle {:#010x}",
                                    c_opt.is_some(),
                                    got.to_bits(),
                                    want.to_bits()
                                )
                            };
                            if want.is_nan() {
                                assert!(got.is_nan(), "NaN lost: {}", ctx());
                                nan += 1;
                            } else {
                                assert_eq!(got.to_bits(), want.to_bits(), "{}", ctx());
                                inf += want.is_infinite() as usize;
                            }
                            compared += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(nan > 0 && inf > 0, "nan={nan} inf={inf} of {compared}");
}
