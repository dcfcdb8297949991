//! Serve-level counters and latency quantiles.
//!
//! The engine's `GemmReport` describes one call from the inside; these
//! counters describe the serving tier from the outside: how many
//! requests arrived, how many were rejected or expired, how well the
//! batcher coalesced, and what the request latency distribution looks
//! like. Counter updates are single relaxed atomics on the serving hot
//! path; latency samples go into a fixed-size overwrite-oldest ring
//! (the same discipline as the telemetry trace rings — recording never
//! allocates after construction). Exporters mirror the `GemmReport`
//! conventions: `Display` for humans, [`ServeStats::to_json`] for
//! machines.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::queue::lock_unpoisoned;

/// Cached handles into the engine's process-wide metrics registry for
/// the serve-layer series. Each accessor pays the registry lookup once
/// (a `OnceLock`), so bumping a counter on the serving hot path is one
/// relaxed atomic add — the same discipline as [`StatsInner`], which
/// remains the in-band `STATS`-verb source; the registry is the
/// out-of-band scrape plane.
pub(crate) mod reg {
    use egemm::telemetry::metrics::{self, Counter, Gauge};
    use std::sync::OnceLock;

    macro_rules! serve_counter {
        ($name:ident, $series:literal) => {
            pub(crate) fn $name() -> &'static Counter {
                static H: OnceLock<&'static Counter> = OnceLock::new();
                H.get_or_init(|| metrics::counter($series))
            }
        };
    }

    serve_counter!(requests, "egemm_serve_requests_total");
    serve_counter!(busy_rejects, "egemm_serve_busy_rejects_total");
    serve_counter!(invalid, "egemm_serve_invalid_total");
    serve_counter!(deadline_misses, "egemm_serve_deadline_misses_total");
    serve_counter!(completed, "egemm_serve_completed_total");
    serve_counter!(engine_failures, "egemm_serve_engine_failures_total");
    serve_counter!(engine_calls, "egemm_serve_engine_calls_total");
    serve_counter!(dispatched, "egemm_serve_dispatched_total");
    serve_counter!(batched_requests, "egemm_serve_batched_requests_total");
    serve_counter!(dedup_hits, "egemm_serve_dedup_hits_total");
    serve_counter!(result_cache_hits, "egemm_serve_result_cache_hits_total");
    serve_counter!(result_cache_misses, "egemm_serve_result_cache_misses_total");
    serve_counter!(
        result_cache_evictions,
        "egemm_serve_result_cache_evictions_total"
    );
    serve_counter!(backpressure_pauses, "egemm_serve_backpressure_pauses_total");

    pub(crate) fn queue_depth() -> &'static Gauge {
        static H: OnceLock<&'static Gauge> = OnceLock::new();
        H.get_or_init(|| metrics::gauge("egemm_serve_queue_depth"))
    }

    pub(crate) fn open_connections() -> &'static Gauge {
        static H: OnceLock<&'static Gauge> = OnceLock::new();
        H.get_or_init(|| metrics::gauge("egemm_serve_open_connections"))
    }

    pub(crate) fn result_cache_bytes() -> &'static Gauge {
        static H: OnceLock<&'static Gauge> = OnceLock::new();
        H.get_or_init(|| metrics::gauge("egemm_serve_result_cache_bytes"))
    }

    /// Bump a serve counter, honouring the global metrics gate.
    pub(crate) fn bump(c: fn() -> &'static Counter) {
        if metrics::enabled() {
            c().inc();
        }
    }

    /// Set the queue-depth gauge, honouring the global metrics gate.
    pub(crate) fn set_queue_depth(depth: usize) {
        if metrics::enabled() {
            queue_depth().set(depth as i64);
        }
    }

    /// Adjust the open-connections gauge by `delta` (accept / close on
    /// either frontend).
    pub(crate) fn connections_delta(delta: i64) {
        if metrics::enabled() {
            let g = open_connections();
            g.set(g.get() + delta);
        }
    }

    /// Touch every serve series once so a scrape taken before the first
    /// event still lists the full family set (a zero counter is
    /// informative; an absent one looks like a wiring bug). Called from
    /// `Server::start`.
    pub(crate) fn touch_all() {
        let _ = (
            requests(),
            busy_rejects(),
            invalid(),
            deadline_misses(),
            completed(),
            engine_failures(),
            engine_calls(),
            dispatched(),
            batched_requests(),
            dedup_hits(),
            result_cache_hits(),
            result_cache_misses(),
            result_cache_evictions(),
            backpressure_pauses(),
            queue_depth(),
            open_connections(),
            result_cache_bytes(),
        );
    }
}

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
            result_cache_hits: 0,
            result_cache_misses: 0,
            result_cache_evictions: 0,
            result_cache_bytes: 0,
            tiles_stolen: 0,
            panel_reuse_hits: 0,
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
    /// Requests answered by attaching to an identical in-flight request
    /// (the dedupe table): no queue slot, no engine dispatch of their
    /// own.
    pub dedup_hits: u64,
    /// Content-addressed result cache hits (served without any
    /// dispatch). Snapshot-sourced from the server's [`ResultCache`],
    /// like the engine-runtime counters below.
    pub result_cache_hits: u64,
    /// Result-cache lookups that missed (0 while the cache is disabled).
    pub result_cache_misses: u64,
    /// Results evicted to respect the cache's byte budget.
    pub result_cache_evictions: u64,
    /// Bytes currently resident in the result cache.
    pub result_cache_bytes: u64,
    /// Tiles moved between engine workers by work-stealing, summed over
    /// the server's lifetime. Read from the shared engine runtime at
    /// snapshot time (not a serve-side counter), so it covers every
    /// dispatch through this server's engine.
    pub tiles_stolen: u64,
    /// B panels served from the engine's cooperative panel store
    /// instead of being re-packed per tile, summed over the server's
    /// lifetime (same runtime-snapshot sourcing).
    pub panel_reuse_hits: u64,
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

    /// JSON rendering (hand-rolled like every exporter in this repo).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"submitted\":{},\"admitted\":{},\"rejected_busy\":{},\"rejected_invalid\":{},\
             \"timed_out_before\":{},\"timed_out_after\":{},\"completed\":{},\
             \"engine_failures\":{},\"engine_calls\":{},\"dispatched\":{},\"coalesced\":{},\
             \"batched_ratio\":{:.4},\"dedup_hits\":{},\"result_cache_hits\":{},\
             \"result_cache_misses\":{},\"result_cache_evictions\":{},\"result_cache_bytes\":{},\
             \"tiles_stolen\":{},\
             \"panel_reuse_hits\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
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
            self.result_cache_hits,
            self.result_cache_misses,
            self.result_cache_evictions,
            self.result_cache_bytes,
            self.tiles_stolen,
            self.panel_reuse_hits,
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
             {} tile(s) stolen, {} panel(s) reused; \
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
            self.panel_reuse_hits,
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
