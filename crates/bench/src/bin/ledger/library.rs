//! The library workloads (direct `Egemm` calls from one client thread),
//! the engine replay every traced run uses, and the engine-layer probes.

use std::hint::black_box;
use std::time::{Duration, Instant};

use egemm::{content_fingerprint, CacheStats, Egemm, EngineConfig};
use egemm_fp::{split_planes_f32, SplitKernel};
use egemm_matrix::{GemmShape, Matrix};

use crate::host::peak_rss_mb;
use crate::stats::{median, percentile, tail_percentile};
use crate::{engine, mismatches, mix64, random_matrix, unit_f32, Report, SCHEME};

/// One library workload, run on a one-worker engine (the module doc
/// says why).
pub struct Library {
    pub name: &'static str,
    /// `(m, n, k)` of a measured run.
    pub shape: (usize, usize, usize),
    /// `(m, n, k)` under `--smoke`.
    pub smoke_shape: (usize, usize, usize),
    /// Change one element of B before every call so that every call
    /// misses the packed-operand cache. One element of A changes before
    /// every call in every workload, so no call repeats an earlier one.
    pub cold_b: bool,
    /// Calls in each pass of the traced run.
    pub trace_calls: usize,
}

/// The library workloads, in run order.
pub const ALL: [Library; 3] = [SQUARE_1024, SKINNY_COLD, SKINNY_WARM];

const SQUARE_1024: Library = Library {
    name: "square_1024",
    shape: (1024, 1024, 1024),
    smoke_shape: (128, 128, 128),
    cold_b: true,
    trace_calls: 20,
};

const SKINNY_COLD: Library = Library {
    name: "skinny_cold",
    shape: (16, 4096, 4096),
    smoke_shape: (16, 512, 512),
    cold_b: true,
    trace_calls: 20,
};

const SKINNY_WARM: Library = Library {
    name: "skinny_warm",
    shape: (16, 4096, 4096),
    smoke_shape: (16, 512, 512),
    cold_b: false,
    trace_calls: 60,
};

/// Fewest timed calls in a run: p90 then has 10 samples beyond it.
const MIN_CALLS: usize = 100;
const SMOKE_MIN_CALLS: usize = 10;
/// Fresh engines built per run to time set-up.
const SETUP_REPS: usize = 7;
/// Every this many calls (and the first and last) are checked.
const CHECK_EVERY: usize = 10;
/// A run stops here even below `MIN_CALLS`, inside the 180 s limit.
const HARD_CAP: Duration = Duration::from_secs(120);

/// `gemm_prepared` shape (m, n, k) of the kernel probe: a warm B and a
/// 64-row A keep the run inside the microkernel and its tile loop.
const KERNEL_SHAPE: (usize, usize, usize) = (64, 4096, 256);
const KERNEL_REPS: usize = 20;
/// `gemm` shape (m, n, k) of the scheduler probe: 4 × 4 macro-tiles at
/// the default blocking, so workers steal and share packed B panels.
const SCHED_SHAPE: (usize, usize, usize) = (256, 1024, 512);
const SCHED_WORKERS: usize = 2;
const SCHED_CALLS: usize = 10;
/// Split-probe sizes: 256 KiB of input (L2-resident with its two output
/// planes) and 64 MiB (three planes far beyond the LLC).
const SPLIT_L2_ELEMS: usize = 1 << 16;
const SPLIT_DRAM_ELEMS: usize = 1 << 24;
const SMOKE_SPLIT_DRAM_ELEMS: usize = 1 << 20;

/// A and B of one workload, plus the step counter that mutates them.
pub struct Operands {
    pub a: Matrix<f32>,
    pub b: Matrix<f32>,
    seed: u64,
    step: u64,
}

impl Operands {
    pub fn new((m, n, k): (usize, usize, usize), seed: u64) -> Operands {
        Operands {
            a: random_matrix(m, k, mix64(seed ^ 0xA)),
            b: random_matrix(k, n, mix64(seed ^ 0xB)),
            seed,
            step: 0,
        }
    }

    /// Change one element of A, and of B when `cold_b`.
    pub fn next(&mut self, cold_b: bool) {
        self.step += 1;
        let h = mix64(self.seed ^ self.step.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let a = self.a.as_mut_slice();
        let i = h as usize % a.len();
        a[i] = unit_f32(h);
        if cold_b {
            let b = self.b.as_mut_slice();
            let j = (h >> 24) as usize % b.len();
            b[j] = unit_f32(h.rotate_left(29));
        }
    }

    /// Check `d` as the product of the current operands.
    fn check(&self, d: &Matrix<f32>, r: &mut Report) {
        r.check(&self.a, &self.b, d, self.step);
    }
}

fn flops((m, n, k): (usize, usize, usize)) -> f64 {
    GemmShape::new(m, n, k).flops() as f64
}

pub fn run(w: &Library, r: &mut Report) {
    let shape = if r.smoke { w.smoke_shape } else { w.shape };
    let mut ops = Operands::new(shape, r.seed);
    if r.trace {
        traced(w, &mut ops, r);
    } else {
        untraced(w, shape, &mut ops, r);
    }
}

fn untraced(w: &Library, shape: (usize, usize, usize), ops: &mut Operands, r: &mut Report) {
    let mut setup_s = Vec::new();
    let mut eg = None;
    for _ in 0..SETUP_REPS {
        // One engine at a time, so set-up adds nothing to peak_rss_mb.
        drop(eg.take());
        let t = Instant::now();
        let fresh = engine(1);
        let d = fresh.gemm(&ops.a, &ops.b).d;
        ops.check(&d, r);
        setup_s.push(t.elapsed().as_secs_f64());
        eg = Some(fresh);
    }
    let eg = eg.expect("at least one set-up");

    let budget = Duration::from_secs_f64(r.seconds);
    let min_calls = if r.smoke { SMOKE_MIN_CALLS } else { MIN_CALLS };
    let mut ms = Vec::new();
    let mut unchecked = None;
    let start = Instant::now();
    while (ms.len() < min_calls || start.elapsed() < budget) && start.elapsed() < HARD_CAP {
        ops.next(w.cold_b);
        let t = Instant::now();
        let d = black_box(eg.gemm(&ops.a, &ops.b)).d;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        if (ms.len() - 1).is_multiple_of(CHECK_EVERY) {
            ops.check(&d, r);
            unchecked = None;
        } else {
            r.count(1, 0);
            unchecked = Some(d);
        }
    }
    if let Some(d) = unchecked {
        // Already counted as attempted; only a mismatch adds a failure.
        let bad = mismatches(&ops.a, &ops.b, &d, ops.step) > 0;
        r.count(0, u64::from(bad));
    }

    let p50 = median(&ms);
    if let Some(p) = tail_percentile(ms.len()) {
        eprintln!(
            "  {} calls: p50 {p50:.3} ms ({:.2} GFLOP/s), p{p} {:.3} ms",
            ms.len(),
            flops(shape) / p50 / 1e6,
            percentile(&ms, p)
        );
    }
    r.metric("lat_ms_p50", p50, ms.len());
    r.metric("setup_s", median(&setup_s), setup_s.len());
    r.metric("peak_rss_mb", peak_rss_mb(), 1);
}

/// Medians of the two passes [`engine_passes`] makes over one shape.
pub struct Passes {
    pub calls: usize,
    pub flops: f64,
    /// Untraced `gemm`: the closure's base, and its p90.
    pub base_ms: f64,
    pub base_p90_ms: f64,
    /// `gemm` inside a span: against `base_ms`, the tracing overhead.
    pub traced_ms: f64,
    /// `prepare(B)` then `gemm_prepared(A)`, each in its own span.
    pub replay_ms: f64,
    pub prepare_ms: f64,
    pub prepared_ms: f64,
    /// `Egemm::time(shape)`: the timing model every call also runs.
    pub model_ms: f64,
    /// Cache counter deltas over the untraced pass, and resident bytes
    /// at its end.
    pub cache: CacheStats,
}

/// Untraced `gemm` calls, then the same number of traced iterations:
/// `gemm` in a span, then the call replayed as `prepare(B)` →
/// `gemm_prepared(A)`, then `time(shape)` beside it.
pub fn engine_passes(
    eg: &Egemm,
    ops: &mut Operands,
    cold_b: bool,
    calls: usize,
    r: &mut Report,
) -> Passes {
    let (m, n, k) = (ops.a.rows(), ops.b.cols(), ops.a.cols());
    let checked = |i: usize| i.is_multiple_of(CHECK_EVERY) || i + 1 == calls;
    let c0 = eg.runtime().cache_stats();
    let mut base = Vec::with_capacity(calls);
    for i in 0..calls {
        ops.next(cold_b);
        let t = Instant::now();
        let d = black_box(eg.gemm(&ops.a, &ops.b)).d;
        base.push(t.elapsed().as_secs_f64() * 1e3);
        if checked(i) {
            ops.check(&d, r);
        } else {
            r.count(1, 0);
        }
    }
    let c1 = eg.runtime().cache_stats();

    let ms = |ns: u64| ns as f64 / 1e6;
    let (mut traced, mut replay, mut prepare, mut prepared, mut model) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..calls {
        let req = r.next_req();
        ops.next(cold_b);
        let (out, ns) = r.tracer.time("egemm.gemm", req, || eg.gemm(&ops.a, &ops.b));
        traced.push(ms(ns));
        r.count(1, 0);

        ops.next(cold_b);
        let root = r.tracer.begin("egemm.replay", req);
        let (b, ns_p) = r.tracer.time("egemm.prepare", req, || eg.prepare(&ops.b));
        let (out2, ns_g) = r.tracer.time("egemm.gemm_prepared", req, || {
            eg.gemm_prepared(&ops.a, &b, None)
        });
        replay.push(ms(r.tracer.end(root)));
        prepare.push(ms(ns_p));
        prepared.push(ms(ns_g));
        drop(b);
        if checked(i) {
            ops.check(&out2.d, r);
        } else {
            r.count(1, 0);
        }
        black_box(out);

        let (_, ns_t) = r
            .tracer
            .time("egemm.time", req, || eg.time(GemmShape::new(m, n, k)));
        model.push(ms(ns_t));
    }

    Passes {
        calls,
        flops: flops((m, n, k)),
        base_ms: median(&base),
        base_p90_ms: percentile(&base, 90.0),
        traced_ms: median(&traced),
        replay_ms: median(&replay),
        prepare_ms: median(&prepare),
        prepared_ms: median(&prepared),
        model_ms: median(&model),
        cache: CacheStats {
            hits: c1.hits - c0.hits,
            misses: c1.misses - c0.misses,
            evictions: c1.evictions - c0.evictions,
            bytes: c1.bytes,
            jit_compiles: c1.jit_compiles,
            jit_code_bytes: c1.jit_code_bytes,
            ..CacheStats::default()
        },
    }
}

/// Mean of `(value, weight)` pairs.
fn weighted_mean(xs: impl Iterator<Item = (f64, f64)>) -> f64 {
    let (sum, weight) = xs.fold((0.0, 0.0), |(s, w), (x, wx)| (s + x * wx, w + wx));
    sum / weight
}

/// The closure: the share of the untraced call time `base_ms` that the
/// replayed layers (`replay_ms`) leave unaccounted for, in percent;
/// negative when the replay takes longer than the call.
pub fn unattributed_pct(base_ms: f64, replay_ms: f64) -> f64 {
    100.0 * (base_ms - replay_ms) / base_ms
}

/// Report the engine-layer metrics of one or more shapes' passes on a
/// one-worker engine, each weighted by its share of the workload's calls.
pub fn report_engine(parts: &[(Passes, f64)], kernel_gflops: f64, r: &mut Report) {
    let mean = |f: &dyn Fn(&Passes) -> f64| weighted_mean(parts.iter().map(|(p, w)| (f(p), *w)));
    let calls: usize = parts.iter().map(|p| p.0.calls).sum();
    let sum = |f: &dyn Fn(&Passes) -> u64| parts.iter().map(|(p, _)| f(p)).sum::<u64>();

    let (base, replay) = (mean(&|p| p.base_ms), mean(&|p| p.replay_ms));
    let model = mean(&|p| p.model_ms);
    let compute = mean(&|p| p.prepared_ms) - model;
    let terms = SCHEME.terms().len() as f64;
    let ideal = mean(&|p| terms * p.flops) / (kernel_gflops * 1e6);
    eprintln!(
        "  closure: base gemm {base:.3} ms, replay {replay:.3} ms = prepare {:.3} + \
         gemm_prepared {:.3} (model {model:.3})",
        mean(&|p| p.prepare_ms),
        mean(&|p| p.prepared_ms),
    );
    r.metric(
        "egemm.unattributed_pct",
        unattributed_pct(base, replay),
        calls,
    );
    r.metric("model.time_us", model * 1e3, calls);
    r.metric("engine.compute_ms", compute, calls);
    r.metric("engine.tile_overhead_ms", compute - ideal, calls);

    let hits = sum(&|p| p.cache.hits);
    let lookups = hits + sum(&|p| p.cache.misses);
    r.metric(
        "cache.hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        calls,
    );
    r.metric(
        "cache.evictions_per_call",
        sum(&|p| p.cache.evictions) as f64 / calls as f64,
        calls,
    );
    let last = &parts[parts.len() - 1].0;
    r.metric(
        "cache.resident_mb",
        last.cache.bytes as f64 / (1 << 20) as f64,
        1,
    );
    r.metric("jit.compiles", last.cache.jit_compiles as f64, 1);
    r.metric("jit.code_bytes", last.cache.jit_code_bytes as f64, 1);
}

/// The work-stealing scheduler and the cooperative panel store on
/// [`SCHED_WORKERS`] workers, with B cold per call.
fn sched_probe(r: &mut Report) {
    let eg = engine(SCHED_WORKERS);
    let mut ops = Operands::new(SCHED_SHAPE, mix64(r.seed ^ 0xE));
    let before = eg.runtime().sched_stats();
    for i in 0..SCHED_CALLS {
        ops.next(true);
        let d = eg.gemm(&ops.a, &ops.b).d;
        if i == 0 || i + 1 == SCHED_CALLS {
            ops.check(&d, r);
        } else {
            r.count(1, 0);
        }
    }
    let s = eg.runtime().sched_stats().delta_since(&before);
    let cfg = EngineConfig::default();
    let (m, n, _) = SCHED_SHAPE;
    let tiles = SCHED_CALLS * m.div_ceil(cfg.mc) * n.div_ceil(cfg.nc);
    r.metric(
        "sched.steal_ratio",
        s.tiles_stolen as f64 / tiles as f64,
        SCHED_CALLS,
    );
    let panels = s.panel_reuse_hits + s.panels_packed;
    r.metric(
        "sched.panel_reuse_ratio",
        s.panel_reuse_hits as f64 / panels.max(1) as f64,
        SCHED_CALLS,
    );
}

fn traced(w: &Library, ops: &mut Operands, r: &mut Report) {
    let eg = engine(1);
    ops.next(w.cold_b);
    let d = eg.gemm(&ops.a, &ops.b).d;
    ops.check(&d, r);
    let passes = engine_passes(&eg, ops, w.cold_b, w.trace_calls, r);
    r.metric("gflops", passes.flops / passes.base_ms / 1e6, passes.calls);
    r.metric("max_rate_rps", 1e3 / passes.base_ms, passes.calls);
    r.metric("lat_ms_p90", passes.base_p90_ms, passes.calls);
    r.metric(
        "tracing_overhead_pct",
        100.0 * (passes.traced_ms - passes.base_ms) / passes.base_ms,
        passes.calls,
    );
    let kernel_gflops = layer_probes(&eg, &ops.b, r);
    report_engine(&[(passes, 1.0)], kernel_gflops, r);
    crate::serve::stage_probe(r);
}

/// Repetitions of a probe over `elems` elements: about 2^24 elements
/// in total, between 5 and 1000 repetitions.
fn reps_for(elems: usize) -> usize {
    ((1usize << 24) / elems.max(1)).clamp(5, 1000)
}

/// Median seconds of `reps` runs of `f`.
fn time_reps(reps: usize, mut f: impl FnMut()) -> f64 {
    let secs: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&secs)
}

fn split_melem_s(elems: usize) -> f64 {
    let xs = random_matrix(1, elems, 0x5);
    let (mut hi, mut lo) = (vec![0f32; elems], vec![0f32; elems]);
    let run = |hi: &mut [f32], lo: &mut [f32]| {
        split_planes_f32(
            SplitKernel::Auto,
            SCHEME.split_scheme(),
            black_box(xs.as_slice()),
            hi,
            lo,
        );
        black_box((hi, lo));
    };
    run(&mut hi, &mut lo);
    let s = time_reps(reps_for(elems), || run(&mut hi, &mut lo));
    elems as f64 / s / 1e6
}

/// Probes of the split, fingerprint, pack, kernel and scheduler layers
/// on `b` (the workload's B) and fixed shapes. Returns the kernel's
/// GFLOP/s.
pub fn layer_probes(eg: &Egemm, b: &Matrix<f32>, r: &mut Report) -> f64 {
    let c = r.ceilings;
    r.metric("ceiling.muladd_gflops", c.muladd_gflops, 1);
    r.metric("ceiling.copy_gbs", c.copy_gbs, 1);

    let l2 = split_melem_s(SPLIT_L2_ELEMS);
    r.metric("fp.split_melem_s.l2", l2, reps_for(SPLIT_L2_ELEMS));
    let dram_elems = if r.smoke {
        SMOKE_SPLIT_DRAM_ELEMS
    } else {
        SPLIT_DRAM_ELEMS
    };
    r.metric(
        "fp.split_melem_s.dram",
        split_melem_s(dram_elems),
        reps_for(dram_elems),
    );

    let elems = b.as_slice().len();
    let reps = reps_for(elems);
    let bytes = 4.0 * elems as f64;
    let fp_s = time_reps(reps, || {
        black_box(content_fingerprint(black_box(b.as_slice())));
    });
    r.metric("cache.fingerprint_gbs", bytes / fp_s / 1e9, reps);
    let (mut hi, mut lo) = (vec![0f32; elems], vec![0f32; elems]);
    let split_s = time_reps(reps, || {
        split_planes_f32(
            SplitKernel::Auto,
            SCHEME.split_scheme(),
            b.as_slice(),
            &mut hi,
            &mut lo,
        );
        black_box((&hi, &lo));
    });
    drop((hi, lo));

    let mut cold = b.clone();
    let mut packed_bytes = 0;
    let mut step = 0u64;
    let prepare_s = time_reps(reps.min(20), || {
        step += 1;
        let h = mix64(step);
        let at = h as usize % elems;
        cold.as_mut_slice()[at] = unit_f32(h);
        packed_bytes = eg.prepare(&cold).bytes();
    });
    drop(cold);
    let gbs = (bytes + packed_bytes as f64) / prepare_s / 1e9;
    r.metric("pack.prepare_b_ms", prepare_s * 1e3, reps.min(20));
    r.metric("pack.prepare_b_gbs", gbs, reps.min(20));
    r.metric("pack.pct_of_copy", 100.0 * gbs / c.copy_gbs, reps.min(20));
    r.metric(
        "pack.layout_ms",
        (prepare_s - fp_s - split_s) * 1e3,
        reps.min(20),
    );

    let kernel = kernel_gflops(r);
    r.metric("kernel.gflops_exec", kernel, KERNEL_REPS);
    r.metric(
        "kernel.pct_of_peak",
        100.0 * kernel / c.muladd_gflops,
        KERNEL_REPS,
    );
    sched_probe(r);
    kernel
}

/// Executed GFLOP/s (every term's multiply and add) of warm
/// `gemm_prepared` on one worker, net of the timing model it also runs.
fn kernel_gflops(r: &mut Report) -> f64 {
    let eg = engine(1);
    let (m, n, k) = KERNEL_SHAPE;
    let a = random_matrix(m, k, mix64(r.seed ^ 0xC));
    let b = eg.prepare(&random_matrix(k, n, mix64(r.seed ^ 0xD)));
    black_box(eg.gemm_prepared(&a, &b, None));
    let run_s = time_reps(KERNEL_REPS, || {
        black_box(eg.gemm_prepared(black_box(&a), &b, None));
    });
    let model_s = time_reps(KERNEL_REPS, || {
        black_box(eg.time(GemmShape::new(m, n, k)));
    });
    SCHEME.terms().len() as f64 * flops(KERNEL_SHAPE) / (run_s - model_s) / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_weights_shapes_by_their_share_of_calls() {
        assert_eq!(unattributed_pct(10.0, 9.0), 10.0);
        assert_eq!(
            unattributed_pct(10.0, 11.0),
            -10.0,
            "a slower replay is negative"
        );
        // Two shapes in a 2:1 mix: 10 ms calls replayed in 9 ms and 2 ms
        // calls replayed in 2.2 ms.
        let base = weighted_mean([(10.0, 2.0), (2.0, 1.0)].into_iter());
        let replay = weighted_mean([(9.0, 2.0), (2.2, 1.0)].into_iter());
        let pct = unattributed_pct(base, replay);
        assert!((pct - 100.0 * (22.0 - 20.2) / 22.0).abs() < 1e-9, "{pct}");
    }

    #[test]
    fn every_call_changes_the_operands() {
        let mut ops = Operands::new((4, 4, 4), 1);
        let (a0, b0) = (ops.a.clone(), ops.b.clone());
        ops.next(false);
        assert_ne!(ops.a, a0);
        assert_eq!(ops.b, b0, "a warm B stays resident");
        ops.next(true);
        assert_ne!(ops.b, b0, "a cold B misses the cache");
    }
}
