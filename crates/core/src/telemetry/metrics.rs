//! Process-wide lock-free metrics registry.
//!
//! The registry aggregates across calls and across time — unlike
//! [`GemmReport`](super::GemmReport), which is scoped to one traced
//! call. Series are registered once (a mutex-guarded name lookup that
//! leaks the instrument so it lives for the process), and call sites
//! cache the returned `&'static` handle in a `OnceLock`, so the steady
//! state hot path is exactly one relaxed atomic add per event — no
//! locks, no allocation, no branches.
//!
//! The registry holds only the process-wide engine series that no
//! instance owns: GEMM call counts and timings, per-phase engine time,
//! the numerical-health probe, JIT compile times. Counters that an
//! instance already keeps (a server's serve counters, a runtime's
//! cache, JIT and scheduler counters) are not mirrored here; a scrape
//! reads them from their owner and merges them in
//! (`telemetry::render_prometheus`), so each counter has one store.
//!
//! Series names follow Prometheus conventions and may embed a fixed
//! label set directly: `egemm_engine_phase_ns_total{phase="tile"}`.
//! The part before `{` is the family name; [`snapshot`] returns series
//! sorted so one family's children render contiguously in the
//! exposition.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use super::hist::{HistSnapshot, LogHistogram};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n` (one relaxed atomic add).
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

enum Slot {
    Counter(&'static Counter),
    Hist(&'static LogHistogram),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Hist(_) => "histogram",
        }
    }
}

fn registry() -> &'static Mutex<Vec<(String, Slot)>> {
    static REG: OnceLock<Mutex<Vec<(String, Slot)>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Vec::new()))
}

fn lookup<T>(
    name: &str,
    wanted: &'static str,
    extract: impl Fn(&Slot) -> Option<T>,
    create: impl FnOnce() -> (Slot, T),
) -> T {
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    if let Some((_, slot)) = reg.iter().find(|(n, _)| n == name) {
        return extract(slot).unwrap_or_else(|| {
            panic!(
                "metrics series {name:?} already registered as a {}, requested as a {wanted}",
                slot.kind()
            )
        });
    }
    let (slot, handle) = create();
    reg.push((name.to_string(), slot));
    handle
}

/// Find or create the counter named `name` (labels may be embedded:
/// `foo_total{phase="tile"}`). Panics if the name is already registered
/// as a different instrument kind. Cache the result in a `OnceLock` at
/// the call site; this function takes the registry lock.
pub fn counter(name: &str) -> &'static Counter {
    lookup(
        name,
        "counter",
        |s| match s {
            Slot::Counter(c) => Some(*c),
            _ => None,
        },
        || {
            let c: &'static Counter = Box::leak(Box::new(Counter::default()));
            (Slot::Counter(c), c)
        },
    )
}

/// Find or create the histogram named `name`. Same contract as
/// [`counter`].
pub fn histogram(name: &str) -> &'static LogHistogram {
    lookup(
        name,
        "histogram",
        |s| match s {
            Slot::Hist(h) => Some(*h),
            _ => None,
        },
        || {
            let h: &'static LogHistogram = Box::leak(Box::new(LogHistogram::new()));
            (Slot::Hist(h), h)
        },
    )
}

/// One series value: a registry [`snapshot`] entry, or a series an
/// instance reads off its own counters at scrape time (only those are
/// ever gauges).
#[derive(Debug, Clone)]
pub enum SeriesValue {
    Counter(u64),
    Gauge(i64),
    /// Boxed: a snapshot is ~50 words, far larger than the scalar
    /// variants, and only exists on the scrape path.
    Hist(Box<HistSnapshot>),
}

/// Point-in-time copy of every registered series, sorted by name so
/// families render contiguously.
pub fn snapshot() -> Vec<(String, SeriesValue)> {
    let reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    let mut out: Vec<(String, SeriesValue)> = reg
        .iter()
        .map(|(name, slot)| {
            let value = match slot {
                Slot::Counter(c) => SeriesValue::Counter(c.get()),
                Slot::Hist(h) => SeriesValue::Hist(Box::new(h.snapshot())),
            };
            (name.clone(), value)
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

// ---------------------------------------------------------------------------
// Engine-side recording helpers. Call sites cache handles so each event
// is one (or a few) relaxed adds.

/// Shape bucket for per-size throughput series, keyed by total flops
/// (2·m·n·k): tiny < 2^20 <= small < 2^26 <= medium < 2^32 <= large.
pub fn shape_bucket(flops: u64) -> &'static str {
    if flops < 1 << 20 {
        "tiny"
    } else if flops < 1 << 26 {
        "small"
    } else if flops < 1 << 32 {
        "medium"
    } else {
        "large"
    }
}

/// Record one engine-level GEMM call (`batch` problems solved in one
/// dispatch, `flops` total across the batch) taking `wall_ns`.
pub fn record_gemm_call(flops: u64, batch: u64, wall_ns: u64) {
    static CALLS: OnceLock<&'static Counter> = OnceLock::new();
    static WALL: OnceLock<&'static LogHistogram> = OnceLock::new();
    CALLS
        .get_or_init(|| counter("egemm_gemm_calls_total"))
        .add(batch);
    WALL.get_or_init(|| histogram("egemm_gemm_wall_ns"))
        .observe(wall_ns);
    // MFLOP/s into a per-shape-bucket histogram. Four fixed buckets, so
    // four cached handles.
    static MFLOPS: OnceLock<[&'static LogHistogram; 4]> = OnceLock::new();
    let hists = MFLOPS.get_or_init(|| {
        ["tiny", "small", "medium", "large"]
            .map(|b| histogram(&format!("egemm_gemm_mflops{{shape=\"{b}\"}}")))
    });
    let idx = match shape_bucket(flops) {
        "tiny" => 0,
        "small" => 1,
        "medium" => 2,
        _ => 3,
    };
    if wall_ns > 0 {
        let mflops = (flops as u128 * 1_000 / wall_ns as u128) as u64;
        hists[idx].observe(mflops);
    }
}

/// Fold a traced call's per-phase timings and drop count into the
/// registry (invoked by `GemmReport::collect`, so aggregate phase
/// accounting only accrues while tracing is on — untraced calls still
/// count through [`record_gemm_call`]).
pub fn record_report(phase_ns: &[u64], spans_dropped: u64) {
    static PHASES: OnceLock<Vec<&'static Counter>> = OnceLock::new();
    let phases = PHASES.get_or_init(|| {
        super::Phase::ALL
            .iter()
            .map(|p| {
                counter(&format!(
                    "egemm_engine_phase_ns_total{{phase=\"{}\"}}",
                    p.name()
                ))
            })
            .collect()
    });
    for (c, &ns) in phases.iter().zip(phase_ns.iter()) {
        if ns > 0 {
            c.add(ns);
        }
    }
    if spans_dropped > 0 {
        static DROPPED: OnceLock<&'static Counter> = OnceLock::new();
        DROPPED
            .get_or_init(|| counter("egemm_trace_spans_dropped_total"))
            .add(spans_dropped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_or_create_returns_same_handle() {
        let a = counter("test_metrics_same_handle_total");
        let b = counter("test_metrics_same_handle_total");
        assert!(std::ptr::eq(a, b));
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
    }

    #[test]
    fn snapshot_contains_registered_series_sorted() {
        counter("test_metrics_zzz_total").inc();
        counter("test_metrics_aaa_total").add(4);
        histogram("test_metrics_mmm_ns").observe(9);
        let snap = snapshot();
        let names: Vec<&str> = snap
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| n.starts_with("test_metrics_"))
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert!(names.contains(&"test_metrics_aaa_total"));
        let counter_val = snap
            .iter()
            .find(|(n, _)| n == "test_metrics_aaa_total")
            .unwrap();
        match counter_val.1 {
            SeriesValue::Counter(v) => assert_eq!(v, 4),
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn shape_buckets_split_at_documented_edges() {
        assert_eq!(shape_bucket((1 << 20) - 1), "tiny");
        assert_eq!(shape_bucket(1 << 20), "small");
        assert_eq!(shape_bucket(1 << 26), "medium");
        assert_eq!(shape_bucket(1 << 32), "large");
    }
}
