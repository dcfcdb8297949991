//! Integration tests of the event-loop frontend and the
//! content-addressed serving layer:
//!
//! - **Wire bit-exactness**: binwire frames roundtrip every f32 bit
//!   pattern, NaN payloads included.
//! - **Dedupe**: identical concurrent requests produce exactly one
//!   engine dispatch, fanned out to every ticket, bit-identical to a
//!   cold direct call.
//! - **Memoization**: a repeated request is served from the result
//!   cache bit-identically at pool sizes 1 and 4; mutating an operand
//!   buffer changes its fingerprint, so a stale hit is impossible.
//! - **Pipelining**: one connection with many in-flight requests gets
//!   every reply, matched by frame id.
//! - **Hostile and control frames**: a frame that is not binwire is
//!   answered in-band with `invalid`, and the connection and the
//!   reactor keep serving; STATS and METRICS are answered on the same
//!   connection as jobs.
//! - **One store**: every serve series METRICS reports equals the
//!   STATS field it is read from.
//! - **Backpressure**: a full admission queue pauses the socket instead
//!   of answering `Busy`; every pipelined request is eventually served.
//! - **Graceful drain**: shutdown under load flushes every pending
//!   pipelined reply and half-closes — no lost tickets, no truncated
//!   replies.

use egemm::{Egemm, EngineRuntime, RuntimeConfig, TilingConfig};
use egemm_matrix::Matrix;
use egemm_serve::binwire::{self, read_frame, write_frame, WireRequest, WireResponse};
use egemm_serve::{EventServer, GemmRequest, ServeError, Server, ServerConfig};
use egemm_tcsim::DeviceSpec;
use proptest::prelude::*;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// An engine on a private runtime with a pinned pool size.
fn engine(threads: usize) -> Egemm {
    let rt = EngineRuntime::new(RuntimeConfig {
        threads,
        ..RuntimeConfig::default()
    });
    Egemm::new(DeviceSpec::t4(), TilingConfig::T4_PAPER).with_runtime(rt)
}

/// The cold reference: solo pool, cache disabled.
fn cold() -> Egemm {
    Egemm::new(DeviceSpec::t4(), TilingConfig::T4_PAPER).with_runtime(EngineRuntime::new(
        RuntimeConfig {
            threads: 1,
            cache_bytes: 0,
        },
    ))
}

/// A matrix whose bits exercise the full f32 landscape: a random body
/// with NaN (nonstandard payload), infinities, and subnormals planted
/// at deterministic positions.
fn special_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f32> {
    let mut m = Matrix::<f32>::random_uniform(rows, cols, seed);
    let plant = [
        f32::from_bits(0x7fc0_0123), // NaN with payload bits
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(1),           // smallest positive subnormal
        f32::from_bits(0x807f_ffff), // largest negative subnormal
        -0.0,
    ];
    let total = rows * cols;
    for (i, v) in plant.iter().enumerate() {
        let at = (seed as usize + i * 7) % total;
        m.set(at / cols, at % cols, *v);
    }
    m
}

fn bits(m: &Matrix<f32>) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Binary frames carry raw little-endian f32: every bit pattern —
    /// including NaN payloads — survives request and response roundtrips.
    #[test]
    fn binary_wire_roundtrips_every_bit(
        m in 1usize..12,
        k in 1usize..12,
        n in 1usize..12,
        seed in 0u64..10_000,
        with_c in any::<bool>(),
    ) {
        let a = special_matrix(m, k, seed);
        let b = special_matrix(k, n, seed + 1);
        let mut req = GemmRequest::gemm(a.clone(), b.clone());
        if with_c {
            req.c = Some(special_matrix(m, n, seed + 2));
        }
        let frame = binwire::encode_request(seed, &req);
        let WireRequest::Job { id, req: back } =
            binwire::decode_request(&frame).map_err(|e| e.to_string())?
        else {
            return Err("expected a job frame".into());
        };
        prop_assert_eq!(id, seed);
        prop_assert_eq!(bits(&back.a), bits(&a));
        prop_assert_eq!(bits(&back.b), bits(&b));
        if let (Some(c0), Some(c1)) = (&req.c, &back.c) {
            prop_assert_eq!(bits(c1), bits(c0));
        } else {
            prop_assert_eq!(req.c.is_some(), back.c.is_some());
        }

        // Response roundtrip over the same landscape.
        let d = special_matrix(m, n, seed + 3);
        let out = egemm_serve::ServeOutput {
            d: d.clone(),
            request_id: seed + 9,
            shape: req.shape(),
            batched_with: 2,
            cached: true,
            queue_ns: 11,
            total_ns: 22,
            report: None,
        };
        let frame = binwire::encode_response(seed, &Ok(out));
        let resp = binwire::decode_response(&frame).map_err(|e| e.to_string())?;
        let got = resp.result.map_err(|e| e.to_string())?;
        prop_assert_eq!(bits(&got.d), bits(&d));
        prop_assert!(got.cached);
        prop_assert_eq!(got.request_id, seed + 9);
    }
}

#[test]
fn dedupe_coalesces_identical_concurrent_requests_into_one_dispatch() {
    let server = Server::start(
        engine(1),
        ServerConfig {
            // Memo off to isolate the in-flight table; a long batch
            // window keeps the primary queued while the copies attach.
            result_cache_bytes: 0,
            batch_window: Duration::from_millis(40),
            ..ServerConfig::default()
        },
    );
    let client = server.client();
    let a = Matrix::<f32>::random_uniform(24, 24, 61);
    let b = Matrix::<f32>::random_uniform(24, 24, 62);

    let tickets: Vec<_> = (0..4)
        .map(|_| {
            client
                .submit(GemmRequest::gemm(a.clone(), b.clone()))
                .expect("admitted")
        })
        .collect();
    let outs: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().expect("served"))
        .collect();

    let direct = cold().gemm(&a, &b);
    for out in &outs {
        assert_eq!(bits(&out.d), bits(&direct.d), "fanned result bit-identical");
        assert!(!out.cached);
    }
    let ids: std::collections::HashSet<u64> = outs.iter().map(|o| o.request_id).collect();
    assert_eq!(ids.len(), 4, "every waiter keeps its own request id");

    let stats = server.stats();
    assert_eq!(stats.engine_calls, 1, "exactly one dispatch: {stats:?}");
    assert_eq!(stats.dedup_hits, 3, "three followers: {stats:?}");
    assert_eq!(stats.completed, 4);
    server.shutdown();
}

#[test]
fn memo_serves_bit_identical_results_and_never_stale() {
    for threads in [1usize, 4] {
        let server = Server::start(
            engine(threads),
            ServerConfig {
                result_cache_bytes: 8 << 20,
                ..ServerConfig::default()
            },
        );
        let client = server.client();
        let mut a = Matrix::<f32>::random_uniform(32, 32, 71);
        let b = Matrix::<f32>::random_uniform(32, 32, 72);

        let first = client
            .call(GemmRequest::gemm(a.clone(), b.clone()))
            .expect("served");
        assert!(!first.cached, "cold call computes");

        let second = client
            .call(GemmRequest::gemm(a.clone(), b.clone()))
            .expect("served");
        assert!(second.cached, "identical repeat hits the result cache");
        let direct = cold().gemm(&a, &b);
        assert_eq!(
            bits(&second.d),
            bits(&first.d),
            "memo bit-identical (pool {threads})"
        );
        assert_eq!(
            bits(&second.d),
            bits(&direct.d),
            "…and equal to cold direct"
        );

        // Mutation: same buffers, one changed element → new fingerprint,
        // no stale hit, result matches a cold call on the new contents.
        a.set(3, 5, 0.123_456_79);
        let third = client
            .call(GemmRequest::gemm(a.clone(), b.clone()))
            .expect("served");
        assert!(!third.cached, "mutated operand must not hit the cache");
        let direct_mut = cold().gemm(&a, &b);
        assert_eq!(bits(&third.d), bits(&direct_mut.d));
        assert_ne!(bits(&third.d), bits(&first.d), "contents actually changed");

        let stats = server.stats();
        assert_eq!(stats.result_cache_hits, 1, "{stats:?}");
        assert_eq!(stats.engine_calls, 2, "cold + mutated only: {stats:?}");
        assert!(stats.result_cache_bytes > 0);
        server.shutdown();
    }
}

/// Read one framed job reply.
fn read_reply(conn: &mut TcpStream) -> WireResponse {
    let frame = read_frame(conn).unwrap().expect("reply frame");
    binwire::decode_response(&frame).expect("reply decodes")
}

/// Read one framed text reply (STATS or METRICS) for frame `id`.
fn read_text(conn: &mut TcpStream, id: u64) -> String {
    let frame = read_frame(conn).unwrap().expect("text frame");
    let (got, text) = binwire::decode_text_response(&frame).expect("text reply decodes");
    assert_eq!(got, id);
    text
}

#[test]
fn event_frontend_pipelines_mixed_codecs_on_one_connection() {
    let server = Server::start(engine(1), ServerConfig::default());
    let evt = EventServer::bind("127.0.0.1:0", server.client()).expect("bind");

    let mut conn = TcpStream::connect(evt.local_addr()).expect("connect");
    let depth = 8;
    let mut expected = std::collections::HashMap::new();
    for i in 0..depth {
        let a = Matrix::<f32>::random_uniform(12, 12, 500 + i);
        let b = Matrix::<f32>::random_uniform(12, 12, 600 + i);
        let req = GemmRequest::gemm(a.clone(), b.clone());
        write_frame(&mut conn, &binwire::encode_request(i, &req)).unwrap();
        expected.insert(i, cold().gemm(&a, &b).d);
    }
    for _ in 0..depth {
        let resp = read_reply(&mut conn);
        let out = resp.result.expect("served");
        let want = expected.remove(&resp.id).expect("unique reply per id");
        assert_eq!(
            bits(&out.d),
            bits(&want),
            "bit identity over the event loop"
        );
    }
    assert!(expected.is_empty(), "every pipelined request answered");

    evt.shutdown();
    server.shutdown();
}

/// Hostile and control frames share one connection and are answered
/// in-band, in order: a JSON job whose `deadline_ms` no `Duration` can
/// hold (not binwire, so `invalid`), a binwire job with the largest
/// encodable deadline (served), a METRICS scrape and a STATS query. The
/// reactor thread survives all of them, so a second connection is
/// served too.
#[test]
fn hostile_frames_are_answered_in_band_and_the_reactor_survives() {
    let server = Server::start(engine(1), ServerConfig::default());
    let evt = EventServer::bind("127.0.0.1:0", server.client()).expect("bind");
    let connect = || {
        let conn = TcpStream::connect(evt.local_addr()).expect("connect");
        // A dead reactor closes the socket; never hang on it.
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        conn
    };

    let mut conn = connect();
    let json = br#"{"id":1,"kind":"gemm","m":1,"k":1,"n":1,"a":[1],"b":[1],"deadline_ms":1e300}"#;
    write_frame(&mut conn, json).unwrap();
    let resp = read_reply(&mut conn);
    assert!(
        matches!(resp.result, Err(ServeError::Invalid(_))),
        "non-binwire payload must be answered invalid: {:?}",
        resp.result.err()
    );

    let a = Matrix::<f32>::random_uniform(8, 8, 11);
    let b = Matrix::<f32>::random_uniform(8, 8, 12);
    let req = GemmRequest::gemm(a.clone(), b.clone()).with_deadline(Duration::from_nanos(u64::MAX));
    write_frame(&mut conn, &binwire::encode_request(2, &req)).unwrap();
    let resp = read_reply(&mut conn);
    assert_eq!(resp.id, 2);
    let out = resp.result.expect("a far deadline is served");
    assert_eq!(bits(&out.d), bits(&cold().gemm(&a, &b).d), "bit identity");

    write_frame(&mut conn, &binwire::encode_metrics_request(3)).unwrap();
    let text = read_text(&mut conn, 3);
    assert!(
        text.contains("egemm_serve_requests_total"),
        "exposition should list serve counters:\n{text}"
    );
    assert!(text.contains("egemm_serve_completed_total"));

    write_frame(&mut conn, &binwire::encode_stats_request(4)).unwrap();
    let stats = read_text(&mut conn, 4);
    assert!(stats.contains("\"completed\":1,"), "{stats}");

    let mut second = connect();
    write_frame(
        &mut second,
        &binwire::encode_request(5, &GemmRequest::gemm(b, a)),
    )
    .unwrap();
    let resp = read_reply(&mut second);
    assert_eq!(resp.id, 5);
    resp.result.expect("a second connection is still served");

    drop((conn, second));
    evt.shutdown();
    server.shutdown();
}

/// METRICS and STATS render one store: on a server that has evicted
/// from its result cache and holds three connections open, every
/// `egemm_serve_*` series in the exposition equals the STATS field it
/// is read from. Other tests in this binary serve concurrently in the
/// same process, so a series shared process-wide would disagree too.
#[test]
fn metrics_exposition_agrees_with_stats() {
    let server = Server::start(
        engine(1),
        ServerConfig {
            // Room for two 16x16 f32 results, so a third evicts one.
            result_cache_bytes: 2 * 16 * 16 * 4,
            ..ServerConfig::default()
        },
    );
    let evt = EventServer::bind("127.0.0.1:0", server.client()).expect("bind");
    let mut conns: Vec<TcpStream> = (0..3)
        .map(|_| TcpStream::connect(evt.local_addr()).expect("connect"))
        .collect();
    let reqs: Vec<GemmRequest> = (0..3)
        .map(|i| {
            GemmRequest::gemm(
                Matrix::random_uniform(16, 16, 900 + i),
                Matrix::random_uniform(16, 16, 950 + i),
            )
        })
        .collect();
    for (i, (conn, req)) in conns.iter_mut().zip(&reqs).enumerate() {
        write_frame(conn, &binwire::encode_request(i as u64, req)).unwrap();
        assert!(!read_reply(conn).result.expect("served").cached);
    }
    write_frame(&mut conns[0], &binwire::encode_request(3, &reqs[2])).unwrap();
    let repeat = read_reply(&mut conns[0]).result.expect("served");
    assert!(repeat.cached, "the newest result is still memoized");

    write_frame(&mut conns[0], &binwire::encode_metrics_request(4)).unwrap();
    let exposition = read_text(&mut conns[0], 4);
    write_frame(&mut conns[0], &binwire::encode_stats_request(5)).unwrap();
    let stats = read_text(&mut conns[0], 5);
    drop(conns);
    evt.shutdown();
    server.shutdown();

    let metric = |name: &str| -> f64 {
        let line = exposition
            .lines()
            .find(|l| l.split_once(' ').is_some_and(|(n, _)| n == name))
            .unwrap_or_else(|| panic!("exposition is missing {name}:\n{exposition}"));
        line.rsplit_once(' ').unwrap().1.parse().unwrap()
    };
    let field = |key: &str| -> f64 {
        let at = stats
            .find(&format!("\"{key}\":"))
            .unwrap_or_else(|| panic!("STATS is missing {key}: {stats}"));
        let rest = &stats[at + key.len() + 3..];
        let end = rest.find([',', '}']).unwrap();
        rest[..end].parse().unwrap()
    };
    assert!(field("result_cache_evictions") > 0.0, "{stats}");
    assert_eq!(metric("egemm_serve_open_connections"), 3.0, "{exposition}");
    for (series, fields) in [
        ("requests_total", &["submitted"][..]),
        ("busy_rejects_total", &["rejected_busy"]),
        ("invalid_total", &["rejected_invalid"]),
        (
            "deadline_misses_total",
            &["timed_out_before", "timed_out_after"],
        ),
        ("completed_total", &["completed"]),
        ("engine_failures_total", &["engine_failures"]),
        ("engine_calls_total", &["engine_calls"]),
        ("dispatched_total", &["dispatched"]),
        ("batched_requests_total", &["coalesced"]),
        ("dedup_hits_total", &["dedup_hits"]),
        ("result_cache_hits_total", &["result_cache_hits"]),
        ("result_cache_misses_total", &["result_cache_misses"]),
        ("result_cache_evictions_total", &["result_cache_evictions"]),
        ("backpressure_pauses_total", &["backpressure_pauses"]),
        ("result_cache_bytes", &["result_cache_bytes"]),
        ("open_connections", &["open_connections"]),
        ("queue_depth", &["queue_depth"]),
    ] {
        let name = format!("egemm_serve_{series}");
        let want: f64 = fields.iter().map(|f| field(f)).sum();
        assert_eq!(metric(&name), want, "{name} vs STATS {stats}");
    }
    let serve_series = exposition
        .lines()
        .filter(|l| l.starts_with("egemm_serve_"))
        .count();
    assert_eq!(serve_series, 17, "every serve series checked once");
}

#[test]
fn backpressure_pauses_the_socket_instead_of_rejecting() {
    let server = Server::start(
        engine(1),
        ServerConfig {
            queue_cap: 1,
            batch_window: Duration::from_millis(10),
            result_cache_bytes: 0,
            ..ServerConfig::default()
        },
    );
    let evt = EventServer::bind("127.0.0.1:0", server.client()).expect("bind");

    let mut conn = TcpStream::connect(evt.local_addr()).expect("connect");
    let depth = 6;
    for i in 0..depth {
        // Distinct operands: identical ones would dedupe around the
        // queue and never exercise the stall path.
        let a = Matrix::<f32>::random_uniform(16, 16, 700 + i);
        let b = Matrix::<f32>::random_uniform(16, 16, 800 + i);
        let req = GemmRequest::gemm(a, b);
        write_frame(&mut conn, &binwire::encode_request(i, &req)).unwrap();
    }
    let mut seen = std::collections::HashSet::new();
    for _ in 0..depth {
        let resp = read_reply(&mut conn);
        assert!(
            resp.result.is_ok(),
            "backpressure must never surface Busy on the wire: {:?}",
            resp.result.err()
        );
        seen.insert(resp.id);
    }
    assert_eq!(seen.len(), depth as usize, "all pipelined requests served");

    evt.shutdown();
    server.shutdown();
}

#[test]
fn shutdown_under_load_flushes_every_pipelined_reply() {
    let server = Server::start(
        engine(1),
        ServerConfig {
            batch_window: Duration::from_millis(5),
            ..ServerConfig::default()
        },
    );
    let evt = EventServer::bind("127.0.0.1:0", server.client()).expect("bind");
    let addr = evt.local_addr();

    let conns = 4u64;
    let depth = 6u64;
    let clients: Vec<_> = (0..conns)
        .map(|c| {
            std::thread::spawn(move || {
                let mut conn = TcpStream::connect(addr).expect("connect");
                for i in 0..depth {
                    let a = Matrix::<f32>::random_uniform(20, 20, 1000 + c * 100 + i);
                    let b = Matrix::<f32>::random_uniform(20, 20, 2000 + c * 100 + i);
                    let req = GemmRequest::gemm(a, b);
                    write_frame(&mut conn, &binwire::encode_request(i, &req)).unwrap();
                }
                // Read replies until EOF: the drain must deliver every
                // one of them, then half-close (FIN, not RST).
                let mut got = Vec::new();
                loop {
                    match read_frame(&mut conn) {
                        Ok(Some(frame)) => {
                            let resp = binwire::decode_response(&frame).expect("decode");
                            resp.result.expect("pipelined reply served, not dropped");
                            got.push(resp.id);
                        }
                        Ok(None) => break, // clean EOF after the last reply
                        Err(e) => panic!("transport error during drain (RST?): {e}"),
                    }
                }
                got
            })
        })
        .collect();

    // Wait until the reactor has submitted every pipelined request, then
    // drain under load. A fixed sleep could close a connection whose
    // client thread started late and was still writing its frames.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().submitted < conns * depth {
        assert!(
            Instant::now() < deadline,
            "only {} of {} requests submitted after 10 s",
            server.stats().submitted,
            conns * depth
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    evt.shutdown();

    for h in clients {
        let mut got = h.join().expect("client thread");
        got.sort_unstable();
        assert_eq!(
            got,
            (0..depth).collect::<Vec<_>>(),
            "every pipelined request answered exactly once before close"
        );
    }
    let stats = server.stats();
    assert_eq!(
        stats.admitted, stats.completed,
        "no admitted ticket lost in the drain: {stats:?}"
    );
    server.shutdown();
}

#[test]
fn event_frontend_sustains_many_concurrent_connections() {
    let server = Server::start(engine(1), ServerConfig::default());
    let evt = EventServer::bind("127.0.0.1:0", server.client()).expect("bind");
    let addr = evt.local_addr();

    let conns = 64u64;
    let handles: Vec<_> = (0..conns)
        .map(|c| {
            std::thread::spawn(move || {
                let mut conn = TcpStream::connect(addr).expect("connect");
                for i in 0..2u64 {
                    let a = Matrix::<f32>::random_uniform(8, 8, 3000 + c * 10 + i);
                    let b = Matrix::<f32>::random_uniform(8, 8, 4000 + c * 10 + i);
                    let req = GemmRequest::gemm(a, b);
                    write_frame(&mut conn, &binwire::encode_request(i, &req)).unwrap();
                }
                for _ in 0..2 {
                    let frame = read_frame(&mut conn).unwrap().expect("reply");
                    binwire::decode_response(&frame)
                        .expect("decode")
                        .result
                        .expect("served");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let stats = server.stats();
    assert_eq!(stats.completed, conns * 2, "{stats:?}");

    evt.shutdown();
    server.shutdown();
}
