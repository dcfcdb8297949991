//! The host record and the two host ceilings every layer is compared
//! with: a one-core mul+add peak and streaming-copy bandwidth.

use std::hint::black_box;
use std::time::Instant;

/// The two ceilings, measured where and when the ledger runs.
#[derive(Debug, Clone, Copy)]
pub struct Ceilings {
    /// One core, widest vector ISA, separate multiply and add (the
    /// microkernels never use FMA). Each multiply and each add counts as
    /// one floating-point operation.
    pub muladd_gflops: f64,
    /// `copy_from_slice` between two arrays; bytes read plus bytes
    /// written per second.
    pub copy_gbs: f64,
}

/// Bytes of each copy-probe array: at least four times the last-level
/// cache of hosts with up to 128 MiB of it (a 105 MiB one on the 2-vCPU
/// Xeon VM the bounds were set on), so the copy streams from DRAM.
pub const COPY_BYTES: usize = 512 << 20;

/// Independent multiply and add chains per probe loop: enough to cover
/// the 4-cycle latency of both units on two ports.
const CHAINS: usize = 12;

/// Multiplier of the mul chains: close enough to 1 that 10^9 steps
/// neither underflow nor reach subnormals.
const DECAY: f32 = 1.0 - 1.0 / 1048576.0;

/// A ceiling is the best the host managed, so each is the fastest of
/// its repetitions.
pub fn measure_ceilings(copy_bytes: usize, muladd_reps: usize) -> Ceilings {
    Ceilings {
        muladd_gflops: muladd_gflops(muladd_reps),
        copy_gbs: copy_gbs(copy_bytes),
    }
}

/// Fastest of `reps` timed runs of `f`, seconds.
fn fastest(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn muladd_gflops(reps: usize) -> f64 {
    const ITERS: u64 = 1 << 20;
    let (lanes, run): (usize, fn(u64) -> f32) = muladd_kernel();
    let secs = fastest(reps, || {
        black_box(run(black_box(ITERS)));
    });
    2.0 * (lanes * CHAINS) as f64 * ITERS as f64 / secs / 1e9
}

/// The widest mul+add probe this CPU runs: (f32 lanes, loop).
fn muladd_kernel() -> (usize, fn(u64) -> f32) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the CPU reports AVX-512F, the only feature the
            // function enables.
            return (16, |n| unsafe { x86::muladd_avx512(n) });
        }
        if std::arch::is_x86_feature_detected!("avx") {
            // SAFETY: the CPU reports AVX, the only feature the function
            // enables.
            return (8, |n| unsafe { x86::muladd_avx(n) });
        }
    }
    (1, muladd_scalar)
}

fn muladd_scalar(iters: u64) -> f32 {
    let mut x = [1.0f32; CHAINS];
    let mut acc = [0.0f32; CHAINS];
    for _ in 0..iters {
        for c in 0..CHAINS {
            x[c] *= DECAY;
            acc[c] += x[c];
        }
    }
    acc.iter().sum()
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{CHAINS, DECAY};
    use std::arch::x86_64::*;

    #[target_feature(enable = "avx512f")]
    pub fn muladd_avx512(iters: u64) -> f32 {
        let y = _mm512_set1_ps(DECAY);
        let mut x = [_mm512_set1_ps(1.0); CHAINS];
        let mut acc = [_mm512_setzero_ps(); CHAINS];
        for _ in 0..iters {
            for c in 0..CHAINS {
                x[c] = _mm512_mul_ps(x[c], y);
                acc[c] = _mm512_add_ps(acc[c], x[c]);
            }
        }
        let sum = acc
            .iter()
            .fold(_mm512_setzero_ps(), |s, &a| _mm512_add_ps(s, a));
        _mm512_reduce_add_ps(sum)
    }

    #[target_feature(enable = "avx")]
    pub fn muladd_avx(iters: u64) -> f32 {
        let y = _mm256_set1_ps(DECAY);
        let mut x = [_mm256_set1_ps(1.0); CHAINS];
        let mut acc = [_mm256_setzero_ps(); CHAINS];
        for _ in 0..iters {
            for c in 0..CHAINS {
                x[c] = _mm256_mul_ps(x[c], y);
                acc[c] = _mm256_add_ps(acc[c], x[c]);
            }
        }
        let mut lanes = [0f32; 8];
        let sum = acc
            .iter()
            .fold(_mm256_setzero_ps(), |s, &a| _mm256_add_ps(s, a));
        // SAFETY: `lanes` holds exactly the 8 f32 an unaligned store writes.
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), sum) };
        lanes.iter().sum()
    }
}

fn copy_gbs(bytes: usize) -> f64 {
    let n = bytes / 4;
    let src = vec![1.0f32; n];
    let mut dst = vec![0.0f32; n];
    // The first copy faults the destination pages in.
    dst.copy_from_slice(&src);
    let secs = fastest(3, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    2.0 * bytes as f64 / secs / 1e9
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn isa_flags() -> Vec<(&'static str, bool)> {
    #[cfg(target_arch = "x86_64")]
    {
        vec![
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
            ("f16c", std::arch::is_x86_feature_detected!("f16c")),
        ]
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        vec![("avx2", false), ("avx512f", false), ("f16c", false)]
    }
}

/// Size of the highest-level CPU cache, as sysfs spells it ("105M").
fn llc_size() -> String {
    (0..10)
        .filter_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let level: u32 = std::fs::read_to_string(format!("{dir}/level"))
                .ok()?
                .trim()
                .parse()
                .ok()?;
            let size = std::fs::read_to_string(format!("{dir}/size")).ok()?;
            Some((level, size.trim().to_string()))
        })
        .max_by_key(|(level, _)| *level)
        .map_or_else(|| "unknown".into(), |(_, size)| size)
}

/// The commit the working directory is checked out at, read from
/// `.git` without running git; "unknown" outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let head = read(".git/HEAD").unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(r) => read(&format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            }),
    };
    rev.filter(|r| !r.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// One-line JSON host record printed with every result.
pub fn record(seed: u64, seconds: f64, step_s: f64, ceilings: Ceilings) -> String {
    let flags: Vec<String> = isa_flags()
        .iter()
        .map(|(f, on)| format!("\"{f}\":{on}"))
        .collect();
    format!(
        "{{\"host\":{{\"cpu\":\"{}\",{},\"available_parallelism\":{},\"llc\":\"{}\",\
         \"jit_available\":{},\"git_revision\":\"{}\",\"seed\":{seed},\"seconds\":{seconds},\
         \"ladder_step_s\":{step_s},\"muladd_gflops\":{},\"copy_gbs\":{}}}}}",
        cpu_model().replace('"', "'"),
        flags.join(","),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        llc_size(),
        egemm::jit_available(),
        git_revision(),
        ceilings.muladd_gflops,
        ceilings.copy_gbs
    )
}
