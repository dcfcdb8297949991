//! Integration tests of the telemetry layer's contracts: tracing and
//! the numerical-health probe are pure observers (outputs are
//! bit-identical with either on or off, on solo and multi-worker
//! pools), the per-thread trace rings absorb
//! overflow by dropping the oldest events — never by reallocating or
//! blocking the recording thread — and sharded histograms merge
//! concurrent writes into exact totals.

use std::sync::Mutex;

use egemm::telemetry::hist::LogHistogram;
use egemm::telemetry::{self, Phase, RING_CAPACITY};
use egemm::{Egemm, EngineRuntime, RuntimeConfig, TilingConfig};
use egemm_matrix::Matrix;
use egemm_tcsim::DeviceSpec;
use proptest::prelude::*;

/// The enabled flag and the ring registry are process-global, so tests
/// that flip tracing must not interleave within this binary.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// An engine on a private runtime with a pinned pool size, so the two
/// sides of a comparison start from identical (empty) cache state.
fn engine(threads: usize) -> Egemm {
    let rt = EngineRuntime::new(RuntimeConfig {
        threads,
        ..RuntimeConfig::default()
    });
    Egemm::new(DeviceSpec::t4(), TilingConfig::T4_PAPER).with_runtime(rt)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same operands, fresh runtimes: the traced product must equal the
    /// untraced one to the bit, whether the pool is solo (threads = 1)
    /// or parallel (threads = 4). Tracing that perturbed scheduling into
    /// a different accumulation grouping would show up here.
    #[test]
    fn tracing_never_changes_output_bits(
        m in 1usize..96,
        n in 1usize..96,
        k in 1usize..96,
        pool in 0usize..2,
        seed in 0u64..1000,
    ) {
        let threads = [1usize, 4][pool];
        let _g = TRACE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let a = Matrix::<f32>::random_uniform(m, k, seed + 1);
        let b = Matrix::<f32>::random_uniform(k, n, seed + 2);

        telemetry::set_enabled(false);
        let plain = engine(threads).gemm(&a, &b);
        prop_assert!(plain.report.is_none(), "report produced while tracing is off");

        telemetry::set_enabled(true);
        let traced = engine(threads).gemm(&a, &b);
        telemetry::set_enabled(false);

        for (i, (x, y)) in traced.d.as_slice().iter().zip(plain.d.as_slice()).enumerate() {
            prop_assert_eq!(
                x.to_bits(), y.to_bits(),
                "element {} differs traced vs untraced ({}x{}x{}, {} thread(s))",
                i, m, n, k, threads
            );
        }
        // And the traced side actually observed the run.
        let report = traced.report.expect("tracing on must yield a report");
        prop_assert!(report.phase_count(Phase::Tile) >= 1, "no tile spans recorded");
        prop_assert!(report.phase_count(Phase::Worker) >= 1, "no worker spans recorded");
        prop_assert!(!report.workers.is_empty(), "no worker lanes attributed");
    }

    /// The numerical-health probe must be a pure observer too: the
    /// same operands on fresh runtimes yield bit-identical products
    /// unprobed and with every call probed (rate 1). The probe only
    /// *reads* the output; a probe that perturbed the result would show
    /// up here.
    #[test]
    fn probe_never_changes_output_bits(
        m in 1usize..64,
        n in 1usize..64,
        k in 1usize..64,
        pool in 0usize..2,
        seed in 0u64..1000,
    ) {
        let threads = [1usize, 4][pool];
        let _g = TRACE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let a = Matrix::<f32>::random_uniform(m, k, seed + 1);
        let b = Matrix::<f32>::random_uniform(k, n, seed + 2);

        egemm::set_probe_rate(0);
        let plain = engine(threads).gemm(&a, &b);

        egemm::set_probe_rate(1);
        let probed = engine(threads).gemm(&a, &b);
        egemm::set_probe_rate(0);

        for (i, (x, y)) in probed.d.as_slice().iter().zip(plain.d.as_slice()).enumerate() {
            prop_assert_eq!(
                x.to_bits(), y.to_bits(),
                "element {} differs probed vs unprobed ({}x{}x{}, {} thread(s))",
                i, m, n, k, threads
            );
        }
    }

    /// Concurrent observations into a sharded histogram must merge to
    /// exact totals at snapshot time: nothing lost, nothing double
    /// counted, the sum preserved to the unit — whatever the shard pool
    /// size (fewer shards than threads forces contended shards, more
    /// shards than threads leaves some idle).
    #[test]
    fn histogram_shards_merge_to_exact_totals(
        pool in 0usize..3,
        per_thread in 1usize..400,
        seed in 0u64..10_000,
    ) {
        let shards = [1usize, 4, 8][pool];
        let hist = LogHistogram::with_shards(shards);
        let writers = 4usize;

        // Deterministic per-thread values from an LCG; recompute the
        // expected totals with the same generator.
        let value = |t: u64, i: u64| {
            let x = (seed + 1)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(t * 1_000_003 + i);
            x >> 40 // keep values modest so the sum stays exact
        };
        std::thread::scope(|scope| {
            for t in 0..writers as u64 {
                let hist = &hist;
                scope.spawn(move || {
                    for i in 0..per_thread as u64 {
                        hist.observe(value(t, i));
                    }
                });
            }
        });

        let snap = hist.snapshot();
        let mut want_sum = 0u64;
        for t in 0..writers as u64 {
            for i in 0..per_thread as u64 {
                want_sum += value(t, i);
            }
        }
        prop_assert_eq!(snap.count, (writers * per_thread) as u64,
            "count lost or duplicated across {} shard(s)", shards);
        prop_assert_eq!(snap.sum, want_sum,
            "sum not preserved across {} shard(s)", shards);
        prop_assert_eq!(snap.counts.iter().sum::<u64>(), snap.count,
            "bucket counts disagree with the total");
    }
}

/// A batched call over one shared B must show the sharing in its
/// attached report: the cache delta records exactly one fused pack for
/// B (every other lookup hits) at both pool sizes. This is the
/// telemetry-side witness of the amortization the serving tier's
/// bucketing exists to exploit.
#[test]
fn batched_report_shows_shared_b_prepared_once() {
    let _g = TRACE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    for threads in [1usize, 4] {
        let eng = engine(threads); // private runtime: counters start at zero
        let b0 = Matrix::<f32>::random_uniform(24, 16, 7);
        let a: Vec<Matrix<f32>> = (0..4)
            .map(|i| Matrix::random_uniform(32, 24, 70 + i))
            .collect();
        let b: Vec<Matrix<f32>> = (0..4).map(|_| b0.clone()).collect();

        telemetry::set_enabled(true);
        let out = eng.gemm_batched(&a, &b);
        telemetry::set_enabled(false);

        let report = out.report.expect("tracing on must yield a batch report");
        assert_eq!(
            report.cache.packs, 1,
            "shared B must pack once ({threads} thread(s)): {:?}",
            report.cache
        );
        assert_eq!(
            report.cache.hits,
            a.len() as u64 - 1,
            "all B lookups after the first must hit ({threads} thread(s)): {:?}",
            report.cache
        );
        // And the fused-split-pack phase fired (B's whole-operand pack
        // plus per-tile A packs inside the workers).
        assert!(
            report.phase_count(Phase::FusedSplitPack) >= 1,
            "no fused_split_pack spans ({threads} thread(s))"
        );
    }
}

/// Batched and split-K calls run on the caller and the runtime's own
/// `egemm-engine` pool, at the runtime's width, and spawn no threads of
/// their own. A ring is registered per recording thread and kept for
/// the life of the process, so a call that spawned threads would grow
/// the ring registry (`report.lanes`) on every call.
#[test]
fn batched_and_split_k_spawn_no_per_call_threads() {
    let _g = TRACE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let me = telemetry::worker_id();
    // One 64 x 256 macro-tile per 32^3 problem: the batch is a 2-tile
    // grid and the 4-slice split-K call a 4-tile grid.
    let a: Vec<Matrix<f32>> = (0..2)
        .map(|i| Matrix::random_uniform(32, 32, 90 + i))
        .collect();
    let b: Vec<Matrix<f32>> = (0..2)
        .map(|i| Matrix::random_uniform(32, 32, 95 + i))
        .collect();
    let ka = Matrix::<f32>::random_uniform(32, 256, 98);
    let kb = Matrix::<f32>::random_uniform(256, 32, 99);
    for threads in [1usize, 2] {
        let eng = engine(threads);
        eng.gemm_batched(&a, &b); // warm: both B cached, kernels compiled
        telemetry::set_enabled(true);
        let mut reports: Vec<_> = (0..3).map(|_| eng.gemm_batched(&a, &b).report).collect();
        reports.push(eng.gemm_split_k(&ka, &kb, 4).report);
        telemetry::set_enabled(false);

        let registered = reports[0].as_ref().expect("tracing on").lanes.len();
        for (call, report) in reports.iter().enumerate() {
            let report = report.as_ref().expect("tracing on must yield a report");
            assert_eq!(
                report.lanes.len(),
                registered,
                "call {call} on {threads} worker(s) registered new trace rings"
            );
            let working: Vec<_> = report
                .lanes
                .iter()
                .filter(|l| l.events.iter().any(|e| e.phase == Phase::Worker))
                .collect();
            assert!(
                !working.is_empty() && working.len() <= threads,
                "call {call}: {} lanes ran tiles on {threads} worker(s)",
                working.len()
            );
            for lane in working {
                assert!(
                    lane.worker == me || lane.name.starts_with("egemm-engine#"),
                    "call {call} on {threads} worker(s) ran tiles on {:?}, \
                     neither the caller nor a pool thread",
                    lane.name
                );
            }
        }
    }
}

/// Pushing far more spans than a ring holds must neither grow the ring
/// nor stall the recorder: the drain returns exactly `RING_CAPACITY`
/// surviving events — the newest ones — and an exact count of drops.
#[test]
fn ring_overflow_drops_oldest_without_growing() {
    let _g = TRACE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    telemetry::set_enabled(true);
    telemetry::drain(); // discard anything this thread recorded earlier

    let total = RING_CAPACITY + 257;
    for i in 0..total {
        let t = telemetry::span_start();
        telemetry::span_end(Phase::Tile, t, i as u64);
    }
    telemetry::set_enabled(false);

    let me = telemetry::worker_id();
    let lanes = telemetry::drain();
    let lane = lanes
        .into_iter()
        .find(|l| l.worker == me)
        .expect("this thread registered a lane");
    assert_eq!(lane.events.len(), RING_CAPACITY, "ring grew past capacity");
    assert_eq!(lane.dropped as usize, total - RING_CAPACITY);
    // Overwrite-oldest: the survivors are the most recent events, in order.
    assert_eq!(lane.events[0].detail, (total - RING_CAPACITY) as u64);
    assert_eq!(lane.events[RING_CAPACITY - 1].detail, (total - 1) as u64);

    // A second drain finds the lane empty — events are consumed once.
    let lanes = telemetry::drain();
    let lane = lanes.into_iter().find(|l| l.worker == me).unwrap();
    assert!(lane.events.is_empty(), "drain did not consume events");
    assert_eq!(lane.dropped, 0, "drop counter not reset by drain");
}
