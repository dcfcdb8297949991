//! # egemm-serve — request serving over the persistent EGEMM-TC engine
//!
//! The library layers below this crate compute one GEMM at a time for
//! one caller at a time. This crate is the serving tier the persistent
//! runtime (worker pool + packed-operand cache) was built for: many
//! concurrent clients submit independent `gemm` / `split_k` jobs, and
//! the server turns them into as few engine calls as possible without
//! ever changing a result bit.
//!
//! Request flow:
//!
//! 1. **Admission** ([`Client::submit`]) — the request is validated
//!    (shape agreement, finite-value policy) and pushed into a *bounded*
//!    queue. A full queue rejects immediately with [`ServeError::Busy`];
//!    the queue never grows without bound, so overload degrades into
//!    fast rejections instead of latency collapse.
//! 2. **Bucketing** — the scheduler thread drains the queue and groups
//!    compatible requests by `(shape, emulation scheme, B-content
//!    fingerprint)`. A configurable [`ServerConfig::batch_window`] lets
//!    a bucket accumulate before dispatch.
//! 3. **Dispatch** — each bucket becomes one engine call: a shared-B
//!    bucket of `n` requests runs as one `gemm_batched`, so the O(N²)
//!    split and the panel pack of B execute once per bucket (cache
//!    fingerprint hits), not once per request. Per-request deadlines are
//!    enforced both *before* dispatch (expired requests are answered
//!    [`ServeError::TimedOut`] without costing engine time) and *after*
//!    (a result computed past its deadline is reported as such).
//!    Engine panics are caught at the dispatch boundary and answered
//!    per-request; the scheduler and the shared pool stay healthy.
//! 4. **Response** — every admitted request is answered exactly once,
//!    through the in-process [`Ticket`] or back over the connection it
//!    arrived on. Graceful [`Server::shutdown`] drains everything
//!    already admitted before the scheduler exits.
//!
//! Serving can never change a bit: bucketing only decides *which public
//! engine entry point* runs a request, and every one of those entry
//! points is bit-identical to a cold [`egemm::Egemm::gemm`] (the
//! engine-level guarantee this repo enforces with property tests; the
//! serving-level restatement lives in `tests/serve.rs`).
//!
//! Admission goes through one content-addressed result table
//! (`dedupe`), keyed by the full operand content so it cannot change a
//! bit. A key's entry is *running* while its primary request is queued
//! or dispatched, and identical requests follow it: one dispatch fans
//! out to every waiter. Once the primary resolves, the entry is *done*:
//! its product, held in a byte-budgeted LRU
//! ([`ServerConfig::result_cache_bytes`]), answers repeats without any
//! engine time. Admission and resolution each take the table's one
//! lock once, so an identical request always follows or hits.
//!
//! The network frontend is [`EventServer`] ([`reactor`]): a
//! single-threaded epoll event loop (raw syscalls, no dependencies)
//! driving nonblocking sockets with pipelined requests per connection
//! and backpressure wired to the admission queue — when the queue is
//! full the reactor *stops reading* instead of rejecting, so overload
//! surfaces to clients as TCP flow control. It speaks one codec,
//! [`binwire`]: length-prefixed binary frames that carry f32 payloads
//! bit-exactly. Every request it decodes goes through the same
//! in-process [`Client`], so the frontend cannot change a result bit.
//! The frontend needs x86-64 Linux; elsewhere [`EventServer::bind`]
//! reports `Unsupported` and the in-process [`Client`] is the serving
//! interface.

pub mod binwire;
pub(crate) mod dedupe;
pub mod queue;
pub mod reactor;
pub mod request;
pub mod server;
pub mod stats;

pub use queue::Ticket;
pub use reactor::EventServer;
pub use request::{GemmRequest, JobKind, ServeError, ServeOutput};
pub use server::{Client, Server, ServerConfig};
pub use stats::ServeStats;
