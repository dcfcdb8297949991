//! Integration tests of the serving layer's contracts:
//!
//! - **Bit identity** (the acceptance bar): any result served through
//!   admission, bucketing, and batched dispatch — at any pool size,
//!   with any coalescing — is bitwise equal to a direct cold
//!   `Egemm::gemm` on the same operands.
//! - **Backpressure**: a full admission queue rejects with `Busy`
//!   immediately; every request that *was* admitted is still answered.
//! - **Deadlines**: expiry before dispatch costs no engine time; expiry
//!   after dispatch is reported as such.
//! - **Robustness**: invalid payloads and engine panics are per-request
//!   errors — the scheduler and the shared pool keep serving.
//! - **Shutdown**: drains every admitted request before exiting.

use egemm::{Egemm, EngineRuntime, RuntimeConfig, TilingConfig};
use egemm_matrix::Matrix;
use egemm_serve::{GemmRequest, JobKind, ServeError, Server, ServerConfig};
use egemm_tcsim::DeviceSpec;
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// An engine on a private runtime with a pinned pool size (tests must
/// not share cache state through the process-global runtime).
fn engine(threads: usize) -> Egemm {
    let rt = EngineRuntime::new(RuntimeConfig {
        threads,
        ..RuntimeConfig::default()
    });
    Egemm::new(DeviceSpec::t4(), TilingConfig::T4_PAPER).with_runtime(rt)
}

/// The cold reference: solo pool, cache disabled — every call splits
/// and packs from scratch, exactly what the bit-identity bar compares
/// against.
fn cold() -> Egemm {
    Egemm::new(DeviceSpec::t4(), TilingConfig::T4_PAPER).with_runtime(EngineRuntime::new(
        RuntimeConfig {
            threads: 1,
            cache_bytes: 0,
        },
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Serving-layer bit identity: a wave of concurrent requests over
    /// one shared B — submitted from separate threads, coalesced by the
    /// batch window into shared-B buckets, dispatched on solo and
    /// multi-worker pools — must return products bitwise equal to
    /// direct cold `Egemm::gemm` calls on the same operands.
    #[test]
    fn served_results_bitwise_equal_cold_direct_gemm(
        m in 1usize..48,
        n in 1usize..48,
        k in 1usize..48,
        pool in 0usize..2,
        wave in 1usize..5,
        seed in 0u64..1000,
    ) {
        let threads = [1usize, 4][pool];
        let server = Server::start(engine(threads), ServerConfig {
            batch_window: Duration::from_millis(5),
            ..ServerConfig::default()
        });
        let client = server.client();
        let b_shared = Matrix::<f32>::random_uniform(k, n, seed);

        let handles: Vec<_> = (0..wave)
            .map(|i| {
                let c = client.clone();
                let a = Matrix::<f32>::random_uniform(m, k, seed + 100 + i as u64);
                let b = b_shared.clone();
                std::thread::spawn(move || {
                    let out = c.call(GemmRequest::gemm(a.clone(), b)).expect("served");
                    (a, out)
                })
            })
            .collect();

        let reference = cold();
        for h in handles {
            let (a, out) = h.join().expect("submitter thread");
            let direct = reference.gemm(&a, &b_shared);
            prop_assert_eq!(out.shape, direct.shape);
            for (i, (x, y)) in out.d.as_slice().iter().zip(direct.d.as_slice()).enumerate() {
                prop_assert_eq!(
                    x.to_bits(), y.to_bits(),
                    "element {} differs served vs cold direct ({}x{}x{}, {} thread(s), wave {})",
                    i, m, n, k, threads, wave
                );
            }
        }
        let stats = server.stats();
        prop_assert_eq!(stats.completed, wave as u64);
        prop_assert_eq!(stats.engine_failures, 0);
        server.shutdown();
    }
}

/// Requests sharing B content submitted inside one batch window ride a
/// single bucket: fewer engine calls than requests, and the batched
/// ratio shows it.
#[test]
fn shared_b_requests_coalesce() {
    let server = Server::start(
        engine(2),
        ServerConfig {
            batch_window: Duration::from_millis(40),
            ..ServerConfig::default()
        },
    );
    let client = server.client();
    let b0 = Matrix::<f32>::random_uniform(24, 16, 9);
    let tickets: Vec<_> = (0..6)
        .map(|i| {
            let a = Matrix::<f32>::random_uniform(32, 24, 50 + i);
            client
                .submit(GemmRequest::gemm(a, b0.clone()))
                .expect("admitted")
        })
        .collect();
    let outs: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().expect("served"))
        .collect();
    // All six landed within one 40 ms window (submissions are
    // microseconds apart), so at worst the first dispatched solo and
    // the rest shared one call.
    assert!(
        outs.iter().any(|o| o.batched_with >= 2),
        "no coalescing observed: {:?}",
        outs.iter().map(|o| o.batched_with).collect::<Vec<_>>()
    );
    let stats = server.stats();
    assert!(
        stats.batched_ratio() > 1.0,
        "batched ratio must exceed 1.0, got {} ({} calls for {} dispatched)",
        stats.batched_ratio(),
        stats.engine_calls,
        stats.dispatched
    );
    assert_eq!(stats.completed, 6);
    server.shutdown();
}

/// A full queue answers `Busy` immediately and loses nothing that was
/// admitted.
#[test]
fn full_queue_rejects_busy_and_admitted_work_completes() {
    let server = Server::start(
        engine(2),
        ServerConfig {
            queue_cap: 2,
            batch_window: Duration::from_millis(50),
            ..ServerConfig::default()
        },
    );
    let client = server.client();
    let b = Matrix::<f32>::random_uniform(16, 16, 2);

    let mut tickets = Vec::new();
    let mut busy = None;
    for i in 0..10u64 {
        let a = Matrix::<f32>::random_uniform(16, 16, 100 + i);
        match client.submit(GemmRequest::gemm(a, b.clone())) {
            Ok(t) => tickets.push(t),
            Err(e @ ServeError::Busy { .. }) => {
                busy = Some(e);
                break;
            }
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }
    // Queue cap 2 and a 50 ms linger before the first drain: a tight
    // submission loop must hit the cap.
    let busy = busy.expect("queue never filled");
    assert_eq!(busy, ServeError::Busy { queued: 2 });
    assert!(tickets.len() >= 2);

    for t in tickets {
        t.wait().expect("admitted request must be served");
    }
    let stats = server.stats();
    assert!(stats.rejected_busy >= 1);
    assert_eq!(stats.completed, stats.admitted);
    server.shutdown();
}

/// A deadline that expires while the request is still queued is
/// answered without costing engine time.
#[test]
fn deadline_expires_before_dispatch() {
    let server = Server::start(
        engine(1),
        ServerConfig {
            batch_window: Duration::from_millis(50),
            ..ServerConfig::default()
        },
    );
    let client = server.client();
    let a = Matrix::<f32>::random_uniform(8, 8, 1);
    let b = Matrix::<f32>::random_uniform(8, 8, 2);
    let err = client
        .call(GemmRequest::gemm(a, b).with_deadline(Duration::from_millis(1)))
        .unwrap_err();
    assert_eq!(
        err,
        ServeError::TimedOut {
            after_dispatch: false
        }
    );
    let stats = server.stats();
    assert_eq!(stats.timed_out_before, 1);
    assert_eq!(
        stats.engine_calls, 0,
        "expired request must cost no engine time"
    );
    server.shutdown();
}

/// A deadline that expires while the engine call is running is still
/// reported as a timeout — with the `after_dispatch` flag set.
#[test]
fn deadline_expires_after_dispatch() {
    // The deadline is a quarter of a directly timed call of the same
    // shape on the same engine, so the served call outlives it in any
    // build profile and under a contended test run. A first call
    // compiles the kernels; the timed one and the served one each pack
    // a B of their own, so they do the same work. The shape is wide and
    // shallow because the deadline runs from admission, which hashes A
    // and B before queueing: in a debug build the n x n output costs the
    // call about 70 times what hashing the n x DEPTH operands costs
    // (about 10 times for a square product), so the queue wait stays far
    // below the deadline.
    const DEPTH: usize = 16;
    let n = 2048;
    let eng = engine(1);
    let a = Matrix::<f32>::random_uniform(n, DEPTH, 1);
    let b = Matrix::<f32>::random_uniform(DEPTH, n, 2);
    eng.gemm(&a, &Matrix::<f32>::random_uniform(DEPTH, n, 3));
    let start = Instant::now();
    eng.gemm(&a, &Matrix::<f32>::random_uniform(DEPTH, n, 4));
    let call = start.elapsed();
    // The floor keeps the deadline far above the scheduler's
    // microsecond dequeue, so it is still live at dispatch.
    let deadline = (call / 4).max(Duration::from_millis(2));
    assert!(
        call >= deadline * 2,
        "a {n}x{DEPTH}x{n} call took {call:?}; too fast for a {deadline:?} deadline"
    );

    let server = Server::start(eng, ServerConfig::default());
    let client = server.client();
    let err = client
        .call(GemmRequest::gemm(a, b).with_deadline(deadline))
        .unwrap_err();
    assert_eq!(
        err,
        ServeError::TimedOut {
            after_dispatch: true
        }
    );
    let stats = server.stats();
    assert_eq!(stats.timed_out_after, 1);
    assert_eq!(stats.engine_calls, 1, "the engine time was spent");
    assert_eq!(stats.p50_ns, 0, "a late reply is not a latency sample");
    server.shutdown();
}

/// Invalid payloads and engine panics are per-request errors: the
/// scheduler thread and the shared worker pool keep serving afterwards,
/// and later results are still bit-identical to the cold reference —
/// at both pool sizes.
#[test]
fn bad_requests_never_poison_the_server() {
    for threads in [1usize, 4] {
        let server = Server::start(engine(threads), ServerConfig::default());
        let client = server.client();

        // 1. Dimension mismatch: rejected at validation.
        let err = client
            .call(GemmRequest::gemm(
                Matrix::<f32>::zeros(8, 9),
                Matrix::<f32>::zeros(8, 8),
            ))
            .unwrap_err();
        assert!(
            matches!(err, ServeError::Invalid(ref m) if m.contains("inner dimensions")),
            "{err}"
        );

        // 2. NaN under the finite-only policy: rejected at validation.
        let mut a = Matrix::<f32>::zeros(4, 4);
        a.set(2, 3, f32::NAN);
        let err = client
            .call(GemmRequest::gemm(a, Matrix::<f32>::zeros(4, 4)))
            .unwrap_err();
        assert!(
            matches!(err, ServeError::Invalid(ref m) if m.contains("non-finite")),
            "{err}"
        );

        // 3. A request the engine itself panics on (split-K slice count
        //    beyond k): the dispatch barrier converts the panic into a
        //    per-request Engine error.
        let req = GemmRequest {
            a: Matrix::<f32>::random_uniform(8, 8, 3),
            b: Matrix::<f32>::random_uniform(8, 8, 4),
            c: None,
            kind: JobKind::SplitK { slices: 999 },
            scheme: egemm::EmulationScheme::EgemmTc,
            deadline: None,
        };
        let err = client.call(req).unwrap_err();
        assert!(
            matches!(err, ServeError::Engine(ref m) if m.contains("slice count out of range")),
            "{err}"
        );

        // 4. The same server — same scheduler thread, same pool — still
        //    serves, bit-identically to the cold reference.
        let a = Matrix::<f32>::random_uniform(24, 24, 5);
        let b = Matrix::<f32>::random_uniform(24, 24, 6);
        let out = client
            .call(GemmRequest::gemm(a.clone(), b.clone()))
            .expect("server must survive bad requests");
        let direct = cold().gemm(&a, &b);
        assert_eq!(
            out.d.as_slice(),
            direct.d.as_slice(),
            "post-failure result differs from cold reference ({threads} thread(s))"
        );

        let stats = server.stats();
        assert_eq!(stats.rejected_invalid, 2);
        assert_eq!(stats.engine_failures, 1);
        assert_eq!(stats.completed, 1);
        server.shutdown();
    }
}

/// Graceful shutdown answers every admitted request before the
/// scheduler exits; submissions after shutdown are rejected.
#[test]
fn shutdown_drains_admitted_requests() {
    let server = Server::start(
        engine(2),
        ServerConfig {
            batch_window: Duration::from_millis(40),
            ..ServerConfig::default()
        },
    );
    let client = server.client();
    let b = Matrix::<f32>::random_uniform(16, 16, 1);
    let tickets: Vec<_> = (0..4u64)
        .map(|i| {
            let a = Matrix::<f32>::random_uniform(16, 16, 10 + i);
            client
                .submit(GemmRequest::gemm(a, b.clone()))
                .expect("admitted")
        })
        .collect();

    // Shutdown begins while the scheduler is still lingering; the
    // admitted tickets drain.
    server.shutdown();
    for t in tickets {
        t.wait().expect("admitted request must drain on shutdown");
    }
    let a = Matrix::<f32>::random_uniform(16, 16, 99);
    assert_eq!(
        client.submit(GemmRequest::gemm(a, b)).map(|_| ()),
        Err(ServeError::Shutdown)
    );
}

/// Split-K requests are served through the same queue and answered with
/// results bit-identical to a direct call.
#[test]
fn split_k_served_bit_identical() {
    let server = Server::start(engine(2), ServerConfig::default());
    let client = server.client();
    let a = Matrix::<f32>::random_uniform(16, 96, 21);
    let b = Matrix::<f32>::random_uniform(96, 16, 22);
    let req = GemmRequest {
        a: a.clone(),
        b: b.clone(),
        c: None,
        kind: JobKind::SplitK { slices: 4 },
        scheme: egemm::EmulationScheme::EgemmTc,
        deadline: None,
    };
    let out = client.call(req).expect("served");
    let direct = cold().gemm_split_k(&a, &b, 4);
    assert_eq!(out.d.as_slice(), direct.d.as_slice());
    server.shutdown();
}
