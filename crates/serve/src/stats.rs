//! Serve-level counters and latency quantiles.
//!
//! The engine's `GemmReport` describes one call from the inside; these
//! counters describe the serving tier from the outside: how many
//! requests arrived, how many were rejected or expired, how well the
//! batcher coalesced, and what the request latency distribution looks
//! like. Counter updates are single relaxed atomics on the serving hot
//! path; latency samples go into a fixed-size overwrite-oldest ring
//! (the same discipline as the telemetry trace rings — recording never
//! allocates after construction).
//!
//! Each serve counter has one store: these atomics, the server's result
//! table and admission queue, or the engine runtime. A [`ServeStats`]
//! snapshot reads them, and both planes render that one snapshot:
//! [`ServeStats::to_json`] answers the `STATS` verb, and
//! [`ServeStats::series`] is what `METRICS` merges into the Prometheus
//! exposition, so the two cannot disagree.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::queue::lock_unpoisoned;
use egemm::telemetry::metrics::SeriesValue;

/// Latency samples retained for quantile estimation.
const LATENCY_RING: usize = 4096;

/// Lock-free-ish (one mutex around the sample ring, atomics elsewhere)
/// accumulator owned by the server.
pub(crate) struct StatsInner {
    pub submitted: AtomicU64,
    pub admitted: AtomicU64,
    pub rejected_busy: AtomicU64,
    pub rejected_invalid: AtomicU64,
    pub timed_out_before: AtomicU64,
    pub timed_out_after: AtomicU64,
    pub completed: AtomicU64,
    pub engine_failures: AtomicU64,
    /// Engine calls issued by the scheduler (each serves >= 1 request).
    pub engine_calls: AtomicU64,
    /// Requests served through those calls (completed + late-timeout).
    pub dispatched: AtomicU64,
    /// Requests that rode in a bucket of size >= 2.
    pub coalesced: AtomicU64,
    /// Requests that attached to an identical in-flight request instead
    /// of dispatching (one engine call fanned out to N tickets).
    pub dedup_hits: AtomicU64,
    /// Times the network frontend paused a socket on a full queue.
    pub backpressure_pauses: AtomicU64,
    /// Network connections currently open (the frontend adds on accept
    /// and subtracts on close).
    pub open_connections: AtomicU64,
    latencies: Mutex<LatencyRing>,
}

struct LatencyRing {
    samples: Vec<u64>,
    next: usize,
    full: bool,
}

impl StatsInner {
    pub(crate) fn new() -> StatsInner {
        StatsInner {
            submitted: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            rejected_busy: AtomicU64::new(0),
            rejected_invalid: AtomicU64::new(0),
            timed_out_before: AtomicU64::new(0),
            timed_out_after: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            engine_failures: AtomicU64::new(0),
            engine_calls: AtomicU64::new(0),
            dispatched: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            backpressure_pauses: AtomicU64::new(0),
            open_connections: AtomicU64::new(0),
            latencies: Mutex::new(LatencyRing {
                samples: Vec::with_capacity(LATENCY_RING),
                next: 0,
                full: false,
            }),
        }
    }

    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one admission-to-response latency.
    pub(crate) fn record_latency(&self, ns: u64) {
        let mut ring = lock_unpoisoned(&self.latencies);
        if ring.samples.len() < LATENCY_RING {
            ring.samples.push(ns);
        } else {
            ring.full = true;
            let at = ring.next;
            ring.samples[at] = ns;
        }
        ring.next = (ring.next + 1) % LATENCY_RING;
    }

    pub(crate) fn snapshot(&self) -> ServeStats {
        let (p50_ns, p99_ns) = {
            let ring = lock_unpoisoned(&self.latencies);
            quantiles(&ring.samples)
        };
        ServeStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected_busy: self.rejected_busy.load(Ordering::Relaxed),
            rejected_invalid: self.rejected_invalid.load(Ordering::Relaxed),
            timed_out_before: self.timed_out_before.load(Ordering::Relaxed),
            timed_out_after: self.timed_out_after.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            engine_failures: self.engine_failures.load(Ordering::Relaxed),
            engine_calls: self.engine_calls.load(Ordering::Relaxed),
            dispatched: self.dispatched.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            backpressure_pauses: self.backpressure_pauses.load(Ordering::Relaxed),
            open_connections: self.open_connections.load(Ordering::Relaxed),
            queue_depth: 0,
            result_cache_hits: 0,
            result_cache_misses: 0,
            result_cache_evictions: 0,
            result_cache_bytes: 0,
            tiles_stolen: 0,
            p50_ns,
            p99_ns,
        }
    }
}

/// Nearest-rank quantiles over the retained samples (0 when empty).
fn quantiles(samples: &[u64]) -> (u64, u64) {
    if samples.is_empty() {
        return (0, 0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = |q: f64| {
        let i = ((sorted.len() as f64) * q).ceil() as usize;
        sorted[i.clamp(1, sorted.len()) - 1]
    };
    (rank(0.50), rank(0.99))
}

/// Point-in-time snapshot of the serving counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests presented to [`crate::Client::submit`].
    pub submitted: u64,
    /// Requests that entered the queue.
    pub admitted: u64,
    /// Rejected with [`crate::ServeError::Busy`] (queue full).
    pub rejected_busy: u64,
    /// Rejected at validation.
    pub rejected_invalid: u64,
    /// Deadline expired while queued (no engine time spent).
    pub timed_out_before: u64,
    /// Result computed but delivered past its deadline.
    pub timed_out_after: u64,
    /// Requests answered with a result inside their deadline.
    pub completed: u64,
    /// Requests answered [`crate::ServeError::Engine`] (caught panics).
    pub engine_failures: u64,
    /// Engine calls the scheduler issued.
    pub engine_calls: u64,
    /// Requests served through those engine calls.
    pub dispatched: u64,
    /// Requests that shared an engine call with at least one other.
    pub coalesced: u64,
    /// Requests answered by following an identical running request in
    /// the result table: no queue slot, no engine dispatch of their
    /// own.
    pub dedup_hits: u64,
    /// Times the network frontend paused reading a socket because the
    /// admission queue was full.
    pub backpressure_pauses: u64,
    /// Network connections open at snapshot time.
    pub open_connections: u64,
    /// Requests in the admission queue at snapshot time.
    pub queue_depth: u64,
    /// Requests answered from a memoized product in the
    /// content-addressed result table (served without any dispatch).
    /// Read from the server's result table at snapshot time, like the
    /// engine-runtime counters below.
    pub result_cache_hits: u64,
    /// Admissions that found no memoized product (0 while the byte
    /// budget is 0).
    pub result_cache_misses: u64,
    /// Memoized products evicted to respect the byte budget.
    pub result_cache_evictions: u64,
    /// Bytes of the memoized products currently held.
    pub result_cache_bytes: u64,
    /// Tiles moved between engine workers by work-stealing, summed over
    /// the server's lifetime. Read from the shared engine runtime at
    /// snapshot time (not a serve-side counter), so it covers every
    /// dispatch through this server's engine.
    pub tiles_stolen: u64,
    /// Median admission-to-response latency over the retained window.
    pub p50_ns: u64,
    /// 99th-percentile latency over the retained window.
    pub p99_ns: u64,
}

impl ServeStats {
    /// Requests per engine call: > 1.0 means the batcher is coalescing.
    /// 0.0 before the first dispatch.
    pub fn batched_ratio(&self) -> f64 {
        if self.engine_calls == 0 {
            0.0
        } else {
            self.dispatched as f64 / self.engine_calls as f64
        }
    }

    /// Result-cache hit ratio over all lookups while enabled, 0.0 idle.
    pub fn result_cache_hit_ratio(&self) -> f64 {
        let total = self.result_cache_hits + self.result_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.result_cache_hits as f64 / total as f64
        }
    }

    /// The snapshot as the `egemm_serve_*` Prometheus series that
    /// `METRICS` merges into the exposition: 14 counters and 3 gauges.
    pub fn series(&self) -> Vec<(String, SeriesValue)> {
        let counters = [
            ("requests_total", self.submitted),
            ("busy_rejects_total", self.rejected_busy),
            ("invalid_total", self.rejected_invalid),
            (
                "deadline_misses_total",
                self.timed_out_before + self.timed_out_after,
            ),
            ("completed_total", self.completed),
            ("engine_failures_total", self.engine_failures),
            ("engine_calls_total", self.engine_calls),
            ("dispatched_total", self.dispatched),
            ("batched_requests_total", self.coalesced),
            ("dedup_hits_total", self.dedup_hits),
            ("result_cache_hits_total", self.result_cache_hits),
            ("result_cache_misses_total", self.result_cache_misses),
            ("result_cache_evictions_total", self.result_cache_evictions),
            ("backpressure_pauses_total", self.backpressure_pauses),
        ]
        .map(|(name, v)| (name, SeriesValue::Counter(v)));
        let gauges = [
            ("queue_depth", self.queue_depth),
            ("open_connections", self.open_connections),
            ("result_cache_bytes", self.result_cache_bytes),
        ]
        .map(|(name, v)| (name, SeriesValue::Gauge(v as i64)));
        counters
            .into_iter()
            .chain(gauges)
            .map(|(name, v)| (format!("egemm_serve_{name}"), v))
            .collect()
    }

    /// JSON rendering (hand-rolled like every exporter in this repo).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"submitted\":{},\"admitted\":{},\"rejected_busy\":{},\"rejected_invalid\":{},\
             \"timed_out_before\":{},\"timed_out_after\":{},\"completed\":{},\
             \"engine_failures\":{},\"engine_calls\":{},\"dispatched\":{},\"coalesced\":{},\
             \"batched_ratio\":{:.4},\"dedup_hits\":{},\"backpressure_pauses\":{},\
             \"open_connections\":{},\"queue_depth\":{},\"result_cache_hits\":{},\
             \"result_cache_misses\":{},\"result_cache_evictions\":{},\"result_cache_bytes\":{},\
             \"tiles_stolen\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
            self.submitted,
            self.admitted,
            self.rejected_busy,
            self.rejected_invalid,
            self.timed_out_before,
            self.timed_out_after,
            self.completed,
            self.engine_failures,
            self.engine_calls,
            self.dispatched,
            self.coalesced,
            self.batched_ratio(),
            self.dedup_hits,
            self.backpressure_pauses,
            self.open_connections,
            self.queue_depth,
            self.result_cache_hits,
            self.result_cache_misses,
            self.result_cache_evictions,
            self.result_cache_bytes,
            self.tiles_stolen,
            self.p50_ns,
            self.p99_ns,
        )
    }
}

impl std::fmt::Display for ServeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} submitted: {} ok, {} busy, {} invalid, {} expired ({} late), {} engine-failed; \
             {} engine call(s) for {} dispatched ({:.2}x batched); \
             {} deduped, {} memoized ({:.1} KiB resident, {} evicted); \
             {} tile(s) stolen; \
             p50 {:.3} ms, p99 {:.3} ms",
            self.submitted,
            self.completed,
            self.rejected_busy,
            self.rejected_invalid,
            self.timed_out_before + self.timed_out_after,
            self.timed_out_after,
            self.engine_failures,
            self.engine_calls,
            self.dispatched,
            self.batched_ratio(),
            self.dedup_hits,
            self.result_cache_hits,
            self.result_cache_bytes as f64 / 1024.0,
            self.result_cache_evictions,
            self.tiles_stolen,
            self.p50_ns as f64 / 1e6,
            self.p99_ns as f64 / 1e6,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_nearest_rank() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(quantiles(&xs), (50, 99));
        assert_eq!(quantiles(&[7]), (7, 7));
        assert_eq!(quantiles(&[]), (0, 0));
    }

    #[test]
    fn latency_ring_overwrites_oldest() {
        let s = StatsInner::new();
        for i in 0..(LATENCY_RING as u64 + 10) {
            s.record_latency(i);
        }
        let ring = lock_unpoisoned(&s.latencies);
        assert_eq!(ring.samples.len(), LATENCY_RING);
        assert!(ring.full);
        // The first 10 slots were overwritten by the newest samples.
        assert_eq!(ring.samples[0], LATENCY_RING as u64);
        assert_eq!(ring.samples[9], LATENCY_RING as u64 + 9);
        assert_eq!(ring.samples[10], 10);
    }

    #[test]
    fn batched_ratio_and_json() {
        let s = StatsInner::new();
        s.engine_calls.store(4, Ordering::Relaxed);
        s.dispatched.store(10, Ordering::Relaxed);
        let snap = s.snapshot();
        assert!((snap.batched_ratio() - 2.5).abs() < 1e-12);
        let j = snap.to_json();
        assert!(j.contains("\"batched_ratio\":2.5000"), "{j}");
        assert!(j.starts_with('{') && j.ends_with('}'));
    }
}
