//! Cross-crate integration: kernel builder + timing layer.
//!
//! Checks that the paper's headline *performance shapes* come out of the
//! model: EGEMM-TC's throughput band on T4 and RTX 6000, the benefit of
//! each optimization, and the scaling behaviour over matrix sizes.

use egemm::{build_kernel, Egemm, EmulationScheme, KernelOpts, TilingConfig};
use egemm_matrix::GemmShape;
use egemm_tcsim::{kernel_time, Bound, DeviceSpec};

fn egemm_timing(spec: &DeviceSpec, shape: GemmShape, opts: KernelOpts) -> f64 {
    let d = build_kernel(
        spec,
        &TilingConfig::T4_PAPER,
        shape,
        EmulationScheme::EgemmTc,
        opts,
    );
    kernel_time(spec, &d).tflops
}

#[test]
fn t4_throughput_band_at_8192() {
    // Artifact §A.3: ~12 TFLOPS for the SASS emulation kernel on T4.
    let t = egemm_timing(
        &DeviceSpec::t4(),
        GemmShape::square(8192),
        KernelOpts::default(),
    );
    assert!((10.0..=14.0).contains(&t), "T4 8192^3: {t} TFLOPS");
}

#[test]
fn rtx6000_is_faster_than_t4() {
    // Figure 8b: same shape, higher absolute numbers on RTX 6000
    // (~25 vs ~12 TFLOPS at the top end).
    for n in [2048usize, 8192] {
        let t4 = egemm_timing(
            &DeviceSpec::t4(),
            GemmShape::square(n),
            KernelOpts::default(),
        );
        let rtx = egemm_timing(
            &DeviceSpec::rtx6000(),
            GemmShape::square(n),
            KernelOpts::default(),
        );
        assert!(rtx > t4 * 1.3, "n={n}: rtx {rtx} vs t4 {t4}");
    }
}

#[test]
fn throughput_increases_with_size() {
    // Figure 8a: larger matrices utilize the device better.
    let spec = DeviceSpec::t4();
    let mut last = 0.0;
    for n in GemmShape::PERF_SWEEP {
        let t = egemm_timing(&spec, GemmShape::square(n), KernelOpts::default());
        assert!(
            t >= last * 0.98,
            "throughput should be ~monotone in size: {t} after {last} at n={n}"
        );
        last = t;
    }
}

#[test]
fn all_optimizations_contribute() {
    let spec = DeviceSpec::t4();
    let shape = GemmShape::square(8192);
    let full = egemm_timing(&spec, shape, KernelOpts::default());
    let no_lh = egemm_timing(
        &spec,
        shape,
        KernelOpts {
            latency_hiding: false,
            ..KernelOpts::default()
        },
    );
    // Without FRAG caching, C lives in shared memory and the paper-size
    // block tile no longer fits an SM: the un-optimized kernel must also
    // shrink its tiling (as generic library kernels do).
    let small = TilingConfig {
        bm: 64,
        bn: 64,
        bk: 32,
        wm: 32,
        wn: 32,
        wk: 8,
    };
    let d = build_kernel(
        &spec,
        &small,
        shape,
        EmulationScheme::EgemmTc,
        KernelOpts {
            frag_caching: false,
            ..KernelOpts::default()
        },
    );
    let no_fc = kernel_time(&spec, &d).tflops;
    assert!(full > no_lh, "latency hiding must help: {full} vs {no_lh}");
    assert!(full > no_fc, "FRAG caching must help: {full} vs {no_fc}");
}

#[test]
fn skewed_shapes_stay_performant() {
    // Figure 9: EGEMM-TC "consistently provides high performance" on
    // (N, N, 2N) and (4N, N, N).
    let spec = DeviceSpec::t4();
    for n in [1024usize, 2048, 4096] {
        let sq = egemm_timing(&spec, GemmShape::square(n), KernelOpts::default());
        let sk = egemm_timing(&spec, GemmShape::skewed_k(n), KernelOpts::default());
        let sm = egemm_timing(&spec, GemmShape::skewed_m(n), KernelOpts::default());
        assert!(sk > sq * 0.8, "K-skew at n={n}: {sk} vs square {sq}");
        assert!(sm > sq * 0.8, "M-skew at n={n}: {sm} vs square {sq}");
    }
}

#[test]
fn small_sizes_are_not_compute_bound() {
    // §7.3: "the GPU capability is not fully utilized at small matrix
    // sizes" — 1024^3 on 40 SMs with (128,128) tiles is a single 64-block
    // wave, heavily under-occupied.
    let spec = DeviceSpec::t4();
    let d = build_kernel(
        &spec,
        &TilingConfig::T4_PAPER,
        GemmShape::square(1024),
        EmulationScheme::EgemmTc,
        KernelOpts::default(),
    );
    let t = kernel_time(&spec, &d);
    let t_big = egemm_timing(&spec, GemmShape::square(16384), KernelOpts::default());
    assert!(
        t.tflops < t_big,
        "1024^3 {} should trail 16384^3 {}",
        t.tflops,
        t_big
    );
}

#[test]
fn four_launch_variant_pays_launch_overhead_at_small_sizes() {
    let spec = DeviceSpec::t4();
    let shape = GemmShape::square(1024);
    let one = egemm_timing(&spec, shape, KernelOpts::default());
    let four = egemm_timing(
        &spec,
        shape,
        KernelOpts {
            launches: 4,
            ..KernelOpts::default()
        },
    );
    assert!(
        one > four,
        "4 launches must cost at small sizes: {one} vs {four}"
    );
}

#[test]
fn dram_roofline_engages_for_thin_k() {
    // A degenerate k=64 problem moves lots of C relative to compute.
    let spec = DeviceSpec::t4();
    let d = build_kernel(
        &spec,
        &TilingConfig::T4_PAPER,
        GemmShape::new(16384, 16384, 64),
        EmulationScheme::EgemmTc,
        KernelOpts::default(),
    );
    let t = kernel_time(&spec, &d);
    assert_eq!(t.bound, Bound::Memory, "thin-k should be DRAM bound: {t:?}");
}

#[test]
fn repeated_timing_calls_are_identical() {
    // The steady-state simulation behind every costing is memoized; a
    // repeat (a memo hit) must reproduce the first call exactly, across
    // full and partial waves, batching and split-K.
    for scheme in [EmulationScheme::EgemmTc, EmulationScheme::Markidis] {
        let eg = Egemm::new(DeviceSpec::t4(), TilingConfig::T4_PAPER).with_scheme(scheme);
        for shape in [
            GemmShape::square(32),
            GemmShape::square(1000),
            GemmShape::new(16, 4096, 4096),
            GemmShape::new(8192, 128, 512),
        ] {
            assert_eq!(eg.time(shape), eg.time(shape), "{shape}");
            assert_eq!(
                eg.time_batched(shape, 3),
                eg.time_batched(shape, 3),
                "{shape}"
            );
            assert_eq!(
                eg.time_split_k(shape, 4),
                eg.time_split_k(shape, 4),
                "{shape}"
            );
        }
    }
}
