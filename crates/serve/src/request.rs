//! Request and response types of the serving layer.

use egemm::telemetry::GemmReport;
use egemm::EmulationScheme;
use egemm_matrix::{GemmShape, Matrix};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// What kind of engine call a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// `D = A·B (+ C)`. Requests without a C operand are batchable:
    /// compatible ones coalesce into one `gemm_batched` call.
    Gemm,
    /// Split-K GEMM with the given slice count (`0` auto-selects).
    /// Dispatched singly — each split-K call owns the whole pool.
    SplitK {
        /// Number of reduction slices; `0` = auto ([`egemm::choose_slices`]).
        slices: usize,
    },
}

/// One client request: operands, job kind, emulation scheme, and an
/// optional deadline relative to admission.
#[derive(Debug, Clone)]
pub struct GemmRequest {
    /// Left operand, `m x k`.
    pub a: Matrix<f32>,
    /// Right operand, `k x n`. Requests sharing B *content* (and shape
    /// and scheme) land in one bucket and split/pack B once.
    pub b: Matrix<f32>,
    /// Optional accumulator, `m x n`. Forces single dispatch.
    pub c: Option<Matrix<f32>>,
    /// Engine entry point to use.
    pub kind: JobKind,
    /// Emulation scheme; buckets never mix schemes.
    pub scheme: EmulationScheme,
    /// Deadline measured from admission. Expiry *before* dispatch skips
    /// the compute entirely; expiry detected *after* dispatch still
    /// reports [`ServeError::TimedOut`] (the engine time was spent, the
    /// client contract was not met).
    pub deadline: Option<Duration>,
}

impl GemmRequest {
    /// A plain `D = A·B` request under the default EGEMM-TC scheme.
    pub fn gemm(a: Matrix<f32>, b: Matrix<f32>) -> GemmRequest {
        GemmRequest {
            a,
            b,
            c: None,
            kind: JobKind::Gemm,
            scheme: EmulationScheme::EgemmTc,
            deadline: None,
        }
    }

    /// Set a deadline (builder style).
    pub fn with_deadline(mut self, deadline: Duration) -> GemmRequest {
        self.deadline = Some(deadline);
        self
    }

    /// Set the emulation scheme (builder style).
    pub fn with_scheme(mut self, scheme: EmulationScheme) -> GemmRequest {
        self.scheme = scheme;
        self
    }

    /// The problem shape this request describes (taken from A and B;
    /// validation checks the operands actually agree with it).
    pub fn shape(&self) -> GemmShape {
        GemmShape::new(self.a.rows(), self.b.cols(), self.a.cols())
    }
}

/// Why a request was not served. Every variant is a *per-request*
/// answer: one bad or unlucky request never affects its neighbours, the
/// scheduler, or the shared pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The admission queue was full. Retry later (or shed load).
    Busy {
        /// Queue occupancy observed at rejection (== the configured cap).
        queued: usize,
    },
    /// The deadline expired. `after_dispatch` distinguishes a request
    /// that never cost engine time (expired while queued) from one whose
    /// result arrived too late.
    TimedOut {
        /// True when the engine call ran but finished past the deadline.
        after_dispatch: bool,
    },
    /// Validation failed (dimension mismatch, non-finite values under
    /// the finite-only policy, empty operands).
    Invalid(String),
    /// The engine call panicked; the panic was caught at the dispatch
    /// boundary (the pool recovers via its own panic machinery) and is
    /// reported here instead of poisoning the scheduler.
    Engine(String),
    /// The server is shutting down and no longer admits requests.
    /// Requests admitted *before* shutdown still drain normally.
    Shutdown,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Busy { queued } => {
                write!(f, "admission queue full ({queued} queued)")
            }
            ServeError::TimedOut { after_dispatch } => write!(
                f,
                "deadline expired {} dispatch",
                if *after_dispatch { "after" } else { "before" }
            ),
            ServeError::Invalid(msg) => write!(f, "invalid request: {msg}"),
            ServeError::Engine(msg) => write!(f, "engine failure: {msg}"),
            ServeError::Shutdown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A served result.
#[derive(Debug, Clone)]
pub struct ServeOutput {
    /// The product `D`, bit-identical to a direct cold engine call on
    /// the same operands.
    pub d: Matrix<f32>,
    /// Process-unique id assigned at admission. Returned on the wire,
    /// stamped into the dispatching call's [`GemmReport`] request
    /// traces, and drawn as a flow arrow in the Chrome-trace export —
    /// the correlation key between serve and engine telemetry.
    pub request_id: u64,
    /// Problem shape.
    pub shape: GemmShape,
    /// Requests that rode in the same engine call (1 = dispatched solo).
    pub batched_with: usize,
    /// True when the product was served from the content-addressed
    /// result cache (no engine dispatch; bit-identical to the dispatch
    /// that populated the cache, and therefore to a cold call).
    pub cached: bool,
    /// Time spent queued before dispatch, nanoseconds.
    pub queue_ns: u64,
    /// Admission-to-response latency, nanoseconds.
    pub total_ns: u64,
    /// Engine telemetry for the dispatching call, shared by every
    /// request in the bucket — `Some` only while `EGEMM_TRACE` /
    /// [`egemm::telemetry::set_enabled`] tracing is on.
    pub report: Option<Arc<GemmReport>>,
}
