//! Regenerates **Figure 7**: emulation precision — max error relative to
//! the single-precision computation (Eq. 10) over square sizes 128..8192.
//!
//! Sizes above 2048 are evaluated on a stratified sample of output rows
//! (bit-identical to the full computation on those rows); pass
//! `--full` to force full matrices (slow) or `--quick` to stop at 1024.

use egemm::EmulationScheme;
use egemm_bench::{format_table, maybe_write_csv, precision_sweep, FIG7_PAPER};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let full = args.iter().any(|a| a == "--full");
    let sizes: Vec<usize> = if quick {
        vec![128, 256, 512, 1024]
    } else {
        vec![128, 256, 512, 1024, 2048, 4096, 8192]
    };
    let sample_rows = if full { usize::MAX } else { 48 };
    let series = precision_sweep(&sizes, sample_rows, 2021);
    maybe_write_csv("fig7_precision", &series);
    println!(
        "{}",
        format_table(
            "Figure 7: Emulation Precision (max error vs single precision)",
            "N (NxNxN)",
            &series
        )
    );
    // Headline reductions, as the paper reports them.
    let eg = &series[0];
    let mk = &series[1];
    let half = &series[2];
    let avg_vs_half: f64 = eg
        .points
        .iter()
        .zip(&half.points)
        .map(|(e, h)| h.1 / e.1)
        .sum::<f64>()
        / eg.points.len() as f64;
    let avg_vs_mk: f64 = eg
        .points
        .iter()
        .zip(&mk.points)
        .map(|(e, m)| m.1 / e.1)
        .sum::<f64>()
        / eg.points.len() as f64;
    println!("EGEMM-TC max-error reduction vs cuBLAS-TC-Half: {avg_vs_half:.0}x (paper: ~350x avg, 82x at 8192)");
    println!("EGEMM-TC max-error reduction vs Markidis:       {avg_vs_mk:.2}x (paper: 2.33x)");
    println!("\npaper values for comparison (size, EGEMM-TC, Markidis, half):");
    for (n, e, m, h) in FIG7_PAPER {
        if sizes.contains(&n) {
            println!("  {n:>6}  {e:<10} {m:<10} {h:<10}");
        }
    }

    // Reproduction note: at GEMM scale both extended schemes sit on the
    // f32-accumulation noise floor shared with the reference, so the
    // paper's 2.33x EGEMM-vs-Markidis gap is masked above. It reappears
    // where representation error dominates — small k against the f64
    // ground truth:
    println!("\nsupplement: representation-dominated regime (256 x k x 256, vs f64 truth):");
    println!(
        "  {:>4} {:>14} {:>14} {:>8}",
        "k", "EGEMM-TC", "Markidis", "ratio"
    );
    for k in [8usize, 16, 32] {
        let cell = |scheme: EmulationScheme| -> f64 {
            use egemm_matrix::{gemm_f64_of_f32, Matrix};
            let a = Matrix::<f32>::random_uniform(256, k, 77);
            let b = Matrix::<f32>::random_uniform(k, 256, 78);
            let truth = gemm_f64_of_f32(&a, &b);
            let d = egemm::emulated_gemm(&a, &b, None, scheme);
            egemm_fp::max_abs_error(&d.to_f64_vec(), &truth.to_f64_vec())
        };
        let e = cell(EmulationScheme::EgemmTc);
        let m = cell(EmulationScheme::Markidis);
        println!("  {k:>4} {e:>14.3e} {m:>14.3e} {:>7.2}x", m / e);
    }
    println!("  (paper: 2.33x average — the round-split bit plus the kept lo*lo term)");
}
