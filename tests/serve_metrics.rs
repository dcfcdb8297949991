//! The metrics-plane gate: a probed shared-B burst and a memo repeat
//! over the event-loop frontend, then a METRICS scrape. The exposition
//! must parse line by line, carry every engine, serve,
//! numerical-health and JIT family that `egemm_top` and alerting read
//! with no series or `# TYPE` line twice, and report zero bound
//! violations.
//!
//! This is its own test binary because `egemm::set_probe_rate` and
//! `telemetry::set_enabled` switch process-wide state.

use egemm::{Egemm, EngineRuntime, RuntimeConfig, TilingConfig};
use egemm_matrix::Matrix;
use egemm_serve::binwire::{self, read_frame, write_frame};
use egemm_serve::{EventServer, GemmRequest, ServeOutput, Server, ServerConfig};
use egemm_tcsim::DeviceSpec;
use std::collections::{HashMap, HashSet};
use std::net::TcpStream;
use std::time::Duration;

/// Send one job and wait for its reply on a blocking connection.
fn call(conn: &mut TcpStream, id: u64, req: &GemmRequest) -> ServeOutput {
    write_frame(conn, &binwire::encode_request(id, req)).unwrap();
    let frame = read_frame(conn).unwrap().expect("reply frame");
    let resp = binwire::decode_response(&frame).expect("reply decodes");
    assert_eq!(resp.id, id);
    resp.result.expect("served")
}

#[test]
fn metrics_scrape_parses_and_carries_every_family() {
    // Probe every call so the burst feeds the numerical-health
    // histogram, and trace so collected reports feed the per-phase
    // duration counters.
    egemm::set_probe_rate(1);
    egemm::telemetry::set_enabled(true);

    let rt = EngineRuntime::new(RuntimeConfig {
        threads: 2,
        ..RuntimeConfig::default()
    });
    let server = Server::start(
        Egemm::new(DeviceSpec::t4(), TilingConfig::T4_PAPER).with_runtime(rt),
        ServerConfig {
            queue_cap: 64,
            batch_window: Duration::from_millis(5),
            ..ServerConfig::default()
        },
    );
    let evt = EventServer::bind("127.0.0.1:0", server.client()).expect("bind");
    let addr = evt.local_addr();

    // Shared-B burst: 4 connections, 4 requests each, one B.
    let b = Matrix::<f32>::random_uniform(48, 48, 77);
    std::thread::scope(|s| {
        for c in 0..4u64 {
            let b = &b;
            s.spawn(move || {
                let mut conn = TcpStream::connect(addr).expect("connect");
                for r in 0..4u64 {
                    let a = Matrix::random_uniform(48, 48, c * 10 + r + 1);
                    call(&mut conn, r, &GemmRequest::gemm(a, b.clone()));
                }
            });
        }
    });

    // A repeat of an identical request is answered by the result memo.
    let mut conn = TcpStream::connect(addr).expect("connect");
    let req = GemmRequest::gemm(Matrix::random_uniform(48, 48, 99), b.clone());
    let served = call(&mut conn, 1, &req);
    assert!(served.request_id > 0, "served replies carry a request id");
    let memoized = call(&mut conn, 2, &req);
    assert!(
        memoized.cached,
        "identical repeat must hit the result cache"
    );
    assert_eq!(
        memoized.d.as_slice(),
        served.d.as_slice(),
        "memoized reply must be bit-identical"
    );

    write_frame(&mut conn, &binwire::encode_metrics_request(3)).unwrap();
    let frame = read_frame(&mut conn).unwrap().expect("metrics frame");
    let (id, exposition) = binwire::decode_text_response(&frame).expect("text reply");
    assert_eq!(id, 3);
    drop(conn);
    evt.shutdown();
    server.shutdown();

    let mut series = HashMap::new();
    for line in exposition
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (name, value) = line
            .rsplit_once(' ')
            .filter(|(name, _)| !name.is_empty())
            .unwrap_or_else(|| panic!("unparseable exposition line {line:?}"));
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("non-numeric value in {line:?}"));
        assert!(
            series.insert(name, value).is_none(),
            "duplicate series {name:?}:\n{exposition}"
        );
    }
    // Each family has exactly one `# TYPE` line, and every series
    // belongs to a typed family (histograms via their suffixes).
    let mut typed = HashSet::new();
    for line in exposition.lines().filter_map(|l| l.strip_prefix("# TYPE ")) {
        let family = line.split(' ').next().unwrap_or(line);
        assert!(
            typed.insert(family),
            "family {family} has more than one # TYPE line:\n{exposition}"
        );
    }
    for name in series.keys() {
        let base = name.split('{').next().unwrap_or(name);
        assert!(
            ["", "_bucket", "_sum", "_count"]
                .iter()
                .any(|suffix| base.strip_suffix(suffix).is_some_and(|f| typed.contains(f))),
            "series {name} has no # TYPE line:\n{exposition}"
        );
    }
    for name in [
        "egemm_gemm_calls_total",
        "egemm_numerical_health_count",
        "egemm_numerical_health_probes_total",
        "egemm_serve_requests_total",
        "egemm_serve_completed_total",
        "egemm_serve_result_cache_hits_total",
        "egemm_serve_result_cache_misses_total",
    ] {
        let v = series
            .get(name)
            .unwrap_or_else(|| panic!("exposition is missing {name}:\n{exposition}"));
        assert!(*v > 0.0, "{name} must be positive, got {v}");
    }
    assert_eq!(
        series.get("egemm_bound_violations_total"),
        Some(&0.0),
        "a healthy burst must not trip the bound-violation counter"
    );

    // Series registered at start must be present even at zero.
    let families: HashSet<&str> = series
        .keys()
        .map(|name| name.split('{').next().unwrap_or(name))
        .collect();
    for fam in [
        "egemm_engine_phase_ns_total",
        "egemm_gemm_wall_ns_bucket",
        "egemm_serve_queue_depth",
        "egemm_cache_hits",
        "egemm_serve_dedup_hits_total",
        "egemm_serve_result_cache_evictions_total",
        "egemm_serve_result_cache_bytes",
        "egemm_serve_backpressure_pauses_total",
        "egemm_serve_open_connections",
        "egemm_jit_compiles_total",
        "egemm_jit_cache_hits_total",
        "egemm_jit_compile_ns_bucket",
        "egemm_jit_code_bytes",
    ] {
        assert!(
            families.contains(fam),
            "family missing from exposition: {fam}\n{exposition}"
        );
    }
}
