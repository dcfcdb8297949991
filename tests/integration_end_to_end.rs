//! End-to-end integration of the public API: Egemm over the whole stack,
//! at sizes exercising multiple blocks, multiple k-chunks and ragged
//! edges, checked for both numerics and simulated performance sanity.

use egemm::{Egemm, EmulationScheme, KernelOpts, TilingConfig};
use egemm_fp::ErrorStats;
use egemm_matrix::{gemm_f64_of_f32, GemmShape, Matrix};
use egemm_tcsim::DeviceSpec;

#[test]
fn multi_block_gemm_full_pipeline() {
    // 512^3 spans a 4x4 grid of (128,128) blocks and 16 k-chunks.
    let eg = Egemm::auto(DeviceSpec::t4());
    let a = Matrix::<f32>::random_uniform(512, 512, 1);
    let b = Matrix::<f32>::random_uniform(512, 512, 2);
    let out = eg.gemm(&a, &b);
    let truth = gemm_f64_of_f32(&a, &b);
    let stats = ErrorStats::compare(&out.d.to_f64_vec(), &truth.to_f64_vec());
    // k = 512 sums of [-1,1] products at 21-bit operand precision:
    // max error well below 1e-2 (Figure 7 reports ~1e-4 at N=512 against
    // the f32 reference; against f64 truth the f32 rounding itself adds).
    assert!(stats.max_abs < 5e-3, "max abs err {}", stats.max_abs);
    assert!(stats.rms < 1e-3, "rms {}", stats.rms);
    assert!(eg.time(out.shape).time_s > 0.0);
    assert_eq!(out.shape, GemmShape::square(512));
}

#[test]
fn ragged_dimensions_work_end_to_end() {
    let eg = Egemm::auto(DeviceSpec::t4());
    let a = Matrix::<f32>::random_uniform(200, 130, 3);
    let b = Matrix::<f32>::random_uniform(130, 70, 4);
    let out = eg.gemm(&a, &b);
    assert_eq!((out.d.rows(), out.d.cols()), (200, 70));
    let truth = gemm_f64_of_f32(&a, &b);
    let stats = ErrorStats::compare(&out.d.to_f64_vec(), &truth.to_f64_vec());
    assert!(stats.max_abs < 2e-3, "max abs err {}", stats.max_abs);
}

#[test]
fn paper_error_ratio_reproduced_at_256() {
    // Figure 7 at N=256: EGEMM-TC ~3e-5 abs error vs cuBLAS-TC-Half ~1e-2
    // (a ~350x gap on average across sizes). Reproduce the ordering and
    // magnitude band against the single-precision reference.
    let n = 256;
    let a = Matrix::<f32>::random_uniform(n, n, 5);
    let b = Matrix::<f32>::random_uniform(n, n, 6);
    let mut ref32 = Matrix::<f32>::zeros(n, n);
    egemm_matrix::gemm_f32_reference(&a, &b, &mut ref32);
    let ref64 = ref32.to_f64_vec();

    let t4 = DeviceSpec::t4();
    let err = |scheme: EmulationScheme| {
        let eg = Egemm::new(t4, TilingConfig::T4_PAPER).with_scheme(scheme);
        let d = eg.gemm(&a, &b).d;
        ErrorStats::compare(&d.to_f64_vec(), &ref64).max_abs
    };
    let e_eg = err(EmulationScheme::EgemmTc);
    let e_mk = err(EmulationScheme::Markidis);
    let e_half = err(EmulationScheme::TcHalf);
    assert!(e_eg < 3e-4, "EGEMM-TC max err {e_eg} (paper: ~3e-5 at 256)");
    assert!(e_half > 1e-3, "half err {e_half} (paper: ~1e-2 at 256)");
    assert!(
        e_half / e_eg > 50.0,
        "error reduction {} (paper: ~350x)",
        e_half / e_eg
    );
    assert!(e_eg <= e_mk, "round-split {e_eg} vs truncate-split {e_mk}");
}

#[test]
fn optimization_switches_preserve_numerics() {
    // Turning kernel optimizations off changes time, never values.
    let a = Matrix::<f32>::random_uniform(160, 96, 7);
    let b = Matrix::<f32>::random_uniform(96, 144, 8);
    let base = Egemm::auto(DeviceSpec::t4());
    // Without FRAG caching the C accumulator lives in shared memory, which
    // forces a smaller block tile (the paper-tiling block would not fit an
    // SM) — exactly what generic library kernels do.
    let slow = Egemm::new(
        DeviceSpec::t4(),
        egemm::TilingConfig {
            bm: 64,
            bn: 64,
            bk: 32,
            wm: 32,
            wn: 32,
            wk: 8,
        },
    )
    .with_opts(KernelOpts {
        frag_caching: false,
        latency_hiding: false,
        launches: 4,
        ..KernelOpts::default()
    });
    let d1 = base.gemm(&a, &b);
    let d2 = slow.gemm(&a, &b);
    assert_eq!(d1.d, d2.d);
    assert!(slow.time(d2.shape).time_s > base.time(d1.shape).time_s);
}

#[test]
fn deterministic_across_runs() {
    let eg = Egemm::auto(DeviceSpec::t4());
    let a = Matrix::<f32>::random_uniform(128, 128, 9);
    let b = Matrix::<f32>::random_uniform(128, 128, 10);
    let d1 = eg.gemm(&a, &b).d;
    let d2 = eg.gemm(&a, &b).d;
    // Rayon parallelism must not perturb the bit-exact result.
    for (x, y) in d1.as_slice().iter().zip(d2.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

#[test]
fn rtx6000_full_pipeline() {
    let eg = Egemm::auto(DeviceSpec::rtx6000());
    let a = Matrix::<f32>::random_uniform(256, 256, 11);
    let b = Matrix::<f32>::random_uniform(256, 256, 12);
    let out = eg.gemm(&a, &b);
    let truth = gemm_f64_of_f32(&a, &b);
    let stats = ErrorStats::compare(&out.d.to_f64_vec(), &truth.to_f64_vec());
    assert!(stats.max_abs < 2e-3);
}
