//! Per-call aggregation of drained trace events.

use crate::engine::{CacheStats, SchedStats};

use super::ring::Lane;
use super::Phase;

/// Aggregated telemetry for one engine call (a `gemm`, a batch, or a
/// split-K product). Built by [`GemmReport::collect`] from the events
/// drained since the call started plus cache-counter deltas; rendered
/// by `Display` (summary table), [`GemmReport::to_json`], and
/// [`GemmReport::chrome_trace`].
#[derive(Debug, Clone)]
pub struct GemmReport {
    /// Caller-chosen label (e.g. `gemm 1024x1024x1024`).
    pub label: String,
    /// Wall time of the call, nanoseconds.
    pub wall_ns: u64,
    /// Total span time per [`Phase`], indexed by discriminant. Sums
    /// across threads, so a phase running on 4 workers can exceed
    /// `wall_ns`.
    pub phase_ns: [u64; Phase::COUNT],
    /// Span count per [`Phase`].
    pub phase_counts: [u64; Phase::COUNT],
    /// Bytes written into packed panels (the fused-split-pack span
    /// details).
    pub bytes_packed: u64,
    /// Cache counter deltas over the call (`bytes` is the resident
    /// total after the call, not a delta).
    pub cache: CacheStats,
    /// Scheduler counter deltas over the call: steals and the tiles
    /// they moved.
    pub sched: SchedStats,
    /// Per-worker activity, one entry per thread that recorded events.
    pub workers: Vec<WorkerLane>,
    /// Max worker busy-time over mean worker busy-time; 1.0 is perfect
    /// balance, 1.0 when no worker recorded busy time.
    pub imbalance: f64,
    /// Events lost to ring overflow during the call (durations above
    /// undercount by these). Exported as `spans_dropped` by the JSON
    /// and Chrome-trace renderers and folded into the
    /// `egemm_trace_spans_dropped_total` metric.
    pub dropped_events: u64,
    /// The raw drained lanes, for the Chrome-trace exporter.
    pub lanes: Vec<Lane>,
    /// Serve-layer requests folded into this engine call, when the call
    /// was dispatched by `egemm-serve` (empty for direct API calls).
    /// Timestamps are on the [`super::now_ns`] clock, so the
    /// Chrome-trace exporter can draw each request's admission→dispatch
    /// span and a flow arrow into the engine lanes.
    pub requests: Vec<RequestTrace>,
}

/// One serve request's identity and queue timeline, threaded from
/// admission through scheduling into the engine call that computed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestTrace {
    /// Process-unique request id (also returned to the client).
    pub id: u64,
    /// Admission time into the serve queue ([`super::now_ns`] clock).
    pub admitted_ns: u64,
    /// Time the scheduler handed the request to the engine.
    pub dispatched_ns: u64,
}

/// One worker thread's share of a call.
#[derive(Debug, Clone)]
pub struct WorkerLane {
    /// Stable worker id (trace ring registration index).
    pub worker: u32,
    /// Thread name at ring registration.
    pub name: String,
    /// Macro-tiles this worker claimed and computed.
    pub tiles: u64,
    /// Nanoseconds inside `Worker` spans (claim loop participation).
    pub busy_ns: u64,
}

impl GemmReport {
    /// Drain every trace ring and fold the events recorded since
    /// `start_ns` (a [`super::now_ns`] taken before the call) into a
    /// report. `cache_before`/`cache_after` and
    /// `sched_before`/`sched_after` bracket the call; the report stores
    /// their monotone-counter deltas.
    pub fn collect(
        label: impl Into<String>,
        start_ns: u64,
        cache_before: CacheStats,
        cache_after: CacheStats,
        sched_before: SchedStats,
        sched_after: SchedStats,
    ) -> GemmReport {
        let lanes = super::drain();
        let mut phase_ns = [0u64; Phase::COUNT];
        let mut phase_counts = [0u64; Phase::COUNT];
        let mut bytes_packed = 0u64;
        let mut dropped_events = 0u64;
        let mut workers = Vec::new();
        for lane in &lanes {
            dropped_events += lane.dropped;
            let mut tiles = 0u64;
            let mut busy_ns = 0u64;
            for ev in &lane.events {
                let i = ev.phase as usize;
                phase_ns[i] += ev.dur_ns;
                phase_counts[i] += 1;
                match ev.phase {
                    Phase::FusedSplitPack => bytes_packed += ev.detail,
                    Phase::Worker => {
                        tiles += ev.detail;
                        busy_ns += ev.dur_ns;
                    }
                    _ => {}
                }
            }
            if !lane.events.is_empty() {
                workers.push(WorkerLane {
                    worker: lane.worker,
                    name: lane.name.clone(),
                    tiles,
                    busy_ns,
                });
            }
        }
        let busy: Vec<u64> = workers
            .iter()
            .map(|w| w.busy_ns)
            .filter(|&b| b > 0)
            .collect();
        let imbalance = if busy.is_empty() {
            1.0
        } else {
            let max = *busy.iter().max().unwrap() as f64;
            let mean = busy.iter().sum::<u64>() as f64 / busy.len() as f64;
            max / mean
        };
        // Traced calls also feed the aggregate plane: phase wall-time
        // counters and the spans-dropped total accrue across calls.
        super::metrics::record_report(&phase_ns, dropped_events);
        GemmReport {
            label: label.into(),
            wall_ns: super::now_ns().saturating_sub(start_ns),
            phase_ns,
            phase_counts,
            bytes_packed,
            cache: CacheStats {
                hits: cache_after.hits - cache_before.hits,
                misses: cache_after.misses - cache_before.misses,
                evictions: cache_after.evictions - cache_before.evictions,
                bytes: cache_after.bytes,
                packs: cache_after.packs - cache_before.packs,
                jit_compiles: cache_after.jit_compiles - cache_before.jit_compiles,
                jit_hits: cache_after.jit_hits - cache_before.jit_hits,
                jit_compile_ns: cache_after.jit_compile_ns - cache_before.jit_compile_ns,
                // Resident code bytes are a level, not a rate.
                jit_code_bytes: cache_after.jit_code_bytes,
            },
            sched: sched_after.delta_since(&sched_before),
            workers,
            imbalance,
            dropped_events,
            lanes,
            requests: Vec::new(),
        }
    }

    /// Total span time for one phase, summed across threads.
    pub fn phase_total_ns(&self, phase: Phase) -> u64 {
        self.phase_ns[phase as usize]
    }

    /// Span count for one phase.
    pub fn phase_count(&self, phase: Phase) -> u64 {
        self.phase_counts[phase as usize]
    }
}
