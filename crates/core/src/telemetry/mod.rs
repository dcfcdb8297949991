//! Engine telemetry: phase timers, per-worker trace rings, exporters.
//!
//! The persistent runtime (worker pool, packed-operand cache, SIMD split
//! dispatch) decides the engine's performance, but its hot paths are
//! opaque from the outside. This module gives every layer a measurement
//! substrate without taxing the paths it observes:
//!
//! * **Gate** — one process-wide flag. The *disabled* path of every
//!   instrumentation point is a single relaxed atomic load
//!   ([`enabled`]) and a predictable branch; no timestamp is taken, no
//!   thread-local is touched, nothing is allocated. Enable it with
//!   `EGEMM_TRACE=1` (read once, at first runtime construction or
//!   explicit [`init_from_env`]) or programmatically via
//!   [`set_enabled`], which always wins over the environment.
//! * **Recording** — each recording thread owns a lock-free
//!   single-producer ring ([`RING_CAPACITY`] events, fixed at
//!   registration) holding [`TraceEvent`]s: a [`Phase`], a monotonic
//!   start timestamp against a process-wide epoch, a duration, and one
//!   phase-specific detail word (bytes packed, tile index, worker
//!   count). Overflow overwrites the oldest events — recording never
//!   blocks and never reallocates.
//! * **Collection** — [`drain`] snapshots and empties every ring (the
//!   only locking point, far off the hot path); [`GemmReport::collect`]
//!   aggregates the drained events plus cache-counter deltas into
//!   per-phase wall-times, per-worker tile counts and a load-imbalance
//!   ratio, and exports human-readable, JSON, and Chrome `trace_event`
//!   renderings (loadable in `chrome://tracing` / Perfetto).
//!
//! Alongside the per-call tracing above sits the *aggregate* plane:
//! [`metrics`] (process-wide lock-free registry of the engine's
//! counters and [`hist`] log-scale histograms) and the sampled
//! numerical-health probe (`probe`, rate set by [`set_probe_rate`])
//! that validates extended precision against the `errbound` model in
//! production. [`render_prometheus`] renders the registry as Prometheus
//! text, merged with the series an instance reads off the counters it
//! owns (a server's serve counters, a runtime's cache, JIT and
//! scheduler counters), so no counter is stored twice.
//!
//! Instrumentation can never change a result bit: spans only read
//! clocks and counters around the bit-identical hot loops, and the
//! probe only reads inputs and outputs (enforced by the
//! traced-vs-untraced and probed-vs-unprobed property tests in
//! `tests/telemetry.rs`).

mod export;
pub mod hist;
pub mod metrics;
pub(crate) mod probe;
mod report;
mod ring;

pub use export::render_prometheus;
pub use probe::{probe_rate, set_probe_rate};
pub use report::{GemmReport, RequestTrace, WorkerLane};
pub use ring::{Lane, TraceEvent, RING_CAPACITY};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Once, OnceLock};
use std::time::Instant;

/// The process-wide trace gate. Relaxed is sufficient: the flag carries
/// no data dependency — a stale read merely records or skips a span.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ENV_ONCE: Once = Once::new();

/// Is tracing on? This is the whole disabled-path cost of every
/// instrumentation point: one relaxed load.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Apply `EGEMM_TRACE` exactly once (subsequent calls are no-ops, as is
/// the first call after [`set_enabled`]). Any value other than empty,
/// `0`, or `false` turns tracing on. Called from every
/// [`crate::EngineRuntime`] construction, so the environment takes
/// effect before the first instrumented GEMM.
pub fn init_from_env() {
    ENV_ONCE.call_once(|| {
        if let Ok(v) = std::env::var("EGEMM_TRACE") {
            let on = !(v.is_empty() || v == "0" || v.eq_ignore_ascii_case("false"));
            ENABLED.store(on, Ordering::Relaxed);
        }
    });
}

/// Turn tracing on or off programmatically. Consumes the one-shot
/// environment read first, so an explicit setting is never overridden
/// by a later [`init_from_env`].
pub fn set_enabled(on: bool) {
    ENV_ONCE.call_once(|| {});
    ENABLED.store(on, Ordering::Relaxed);
}

/// Pipeline stage a [`TraceEvent`] is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Phase {
    /// Microkernel compute over one macro-tile's packed panel (detail:
    /// tile index in the claim grid).
    Tile = 0,
    /// Prepared-operand cache lookup (detail: 1 = hit, 0 = miss).
    CacheLookup = 1,
    /// Pool dispatch: publish job, run, wait for drain (detail: worker
    /// count).
    Dispatch = 2,
    /// Worker time parked between claiming jobs (detail: dispatch
    /// epoch).
    Park = 3,
    /// One worker's whole participation in one call (detail: tiles
    /// claimed).
    Worker = 4,
    /// Fused split+pack of a raw operand directly into panel slivers —
    /// per tile for A in the worker, per k panel for B before the tile
    /// grid (detail: bytes packed).
    FusedSplitPack = 5,
    /// An idle worker's victim search ending in a successful steal of a
    /// contiguous tile range (detail: tiles transferred).
    Steal = 6,
    /// One microkernel JIT compilation — IR lowering, register
    /// allocation, encoding, W^X publication, and verification against
    /// the interpreted kernel (detail: executable bytes published, 0
    /// when compilation failed).
    JitCompile = 7,
}

impl Phase {
    /// Number of phases (array-aggregation bound).
    pub const COUNT: usize = 8;

    /// Every phase, in discriminant order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Tile,
        Phase::CacheLookup,
        Phase::Dispatch,
        Phase::Park,
        Phase::Worker,
        Phase::FusedSplitPack,
        Phase::Steal,
        Phase::JitCompile,
    ];

    /// Stable lowercase name used by every exporter.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Tile => "tile",
            Phase::CacheLookup => "cache_lookup",
            Phase::Dispatch => "dispatch",
            Phase::Park => "park",
            Phase::Worker => "worker",
            Phase::FusedSplitPack => "fused_split_pack",
            Phase::Steal => "steal",
            Phase::JitCompile => "jit_compile",
        }
    }

    pub(crate) fn from_u8(x: u8) -> Phase {
        Phase::ALL[(x as usize).min(Phase::COUNT - 1)]
    }
}

/// Nanoseconds since the process-wide trace epoch (the first call).
/// Monotonic across threads — all rings share the one epoch.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Open a span: the start timestamp when tracing is on, 0 when off.
/// Pair with [`span_end`]; the pair costs two relaxed loads when
/// tracing is off.
#[inline]
pub fn span_start() -> u64 {
    if enabled() {
        now_ns().max(1)
    } else {
        0
    }
}

/// Close a span opened by [`span_start`], recording it to the calling
/// thread's ring. A zero `start_ns` (span opened while tracing was off,
/// or tracing flipped mid-span) records nothing.
#[inline]
pub fn span_end(phase: Phase, start_ns: u64, detail: u64) {
    if enabled() && start_ns != 0 {
        ring::record(phase, start_ns, now_ns().saturating_sub(start_ns), detail);
    }
}

/// Snapshot and empty every registered ring. Returns one [`Lane`] per
/// recording thread (registration order), each with its dropped-event
/// count. Recording stays lock-free while a drain runs; events recorded
/// concurrently land in the next drain.
pub fn drain() -> Vec<Lane> {
    ring::drain_all()
}

/// The calling thread's stable worker id (its ring registration index),
/// registering the ring if needed. Exporters use this id as the Chrome
/// trace `tid`.
pub fn worker_id() -> u32 {
    ring::local_worker_id()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_unique_and_roundtrip() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(Phase::from_u8(i as u8), *p);
            for q in &Phase::ALL[i + 1..] {
                assert_ne!(p.name(), q.name());
            }
        }
    }

    #[test]
    fn disabled_spans_record_nothing() {
        // Whatever other tests do with the global flag, a zero start
        // token must never record.
        span_end(Phase::Tile, 0, 123);
        let t = now_ns();
        assert!(now_ns() >= t, "epoch clock must be monotonic");
    }
}
