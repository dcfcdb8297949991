//! Trace a real engine execution end to end and emit a Chrome-trace
//! file: cold call (fused split-and-pack + compute), then a warm call
//! against the populated operand cache, on a multi-worker pool.
//!
//! ```text
//! EGEMM_TRACE=1 cargo run --release -p egemm --example pipeline_trace
//! ```
//!
//! Writes `target/pipeline_trace.json` (override with `--out PATH`) —
//! load it in `chrome://tracing` or <https://ui.perfetto.dev> to see
//! pack/tile spans laid out per worker thread. Build artifacts
//! stay under `target/`; the repo root holds only tracked baselines.
//! The example then validates its own output (the CI
//! gate): the JSON must be well-formed, every pipeline phase must have
//! recorded at least one span, every span must name a phase, and compute
//! spans must be attributed to more than one worker thread. Any violation panics (nonzero exit).

use egemm::engine::{EngineRuntime, RuntimeConfig};
use egemm::telemetry::{self, Phase};
use egemm::{Egemm, TilingConfig};
use egemm_matrix::Matrix;
use egemm_tcsim::DeviceSpec;

/// Minimal structural JSON check: balanced braces/brackets outside
/// string literals, legal escapes, no trailing garbage. (CI re-parses
/// the file with a real JSON parser; this catches corruption even when
/// run standalone.)
fn assert_json_well_formed(s: &str) {
    let mut depth: i64 = 0;
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                assert!(depth >= 0, "unbalanced close at byte {i}");
            }
            c if (c as u32) < 0x20 && c != '\n' && c != '\t' => {
                panic!("raw control character {:#04x} at byte {i}", c as u32)
            }
            _ => {}
        }
    }
    assert!(!in_str, "unterminated string literal");
    assert_eq!(depth, 0, "unbalanced braces/brackets");
}

fn main() {
    // Honour EGEMM_TRACE when set (the CI invocation); force tracing on
    // otherwise so the example is self-contained.
    telemetry::init_from_env();
    if !telemetry::enabled() {
        telemetry::set_enabled(true);
    }

    // A private runtime pins the worker count (>= 2 so spans land on
    // multiple threads) independent of the host's CPU count or env.
    let rt = EngineRuntime::new(RuntimeConfig {
        threads: 4,
        ..RuntimeConfig::default()
    });
    let eg = Egemm::new(DeviceSpec::t4(), TilingConfig::T4_PAPER).with_runtime(rt.clone());

    // 256 x 512 output under the default 64 x 256 macro-tiles = 8 tiles:
    // enough for every pool worker to claim some.
    let a = Matrix::<f32>::random_uniform(256, 256, 1);
    let b = Matrix::<f32>::random_uniform(256, 512, 2);

    let cold = eg.gemm(&a, &b);
    let cold_report = cold.report.expect("tracing is on: cold call must report");
    println!("cold call (fused split-and-pack + compute):\n{cold_report}");

    let warm = eg.gemm(&a, &b);
    let warm_report = warm.report.expect("tracing is on: warm call must report");
    println!("warm call (cache hit on the packed B):\n{warm_report}");

    // Chrome-trace export of the cold call — the interesting timeline.
    // Default under target/ so the artifact never lands in the repo
    // root; --out redirects it.
    let trace = cold_report.chrome_trace();
    let args: Vec<String> = std::env::args().collect();
    let path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "target/pipeline_trace.json".to_string());
    if let Some(dir) = std::path::Path::new(&path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create trace output directory");
        }
    }
    std::fs::write(&path, &trace).expect("write trace file");
    println!(
        "wrote {path} ({} bytes) — load it in chrome://tracing or https://ui.perfetto.dev",
        trace.len()
    );

    // ---- Self-validation (the CI contract) ----
    assert_json_well_formed(&trace);

    // Every pipeline phase must have recorded at least one span over
    // the two calls: the fused cold call covers FusedSplitPack, Tile,
    // CacheLookup, Dispatch, Park, Worker and, on this many tiles,
    // Steal. Phases the cold call recorded must also appear by name in
    // its exported trace. JitCompile only fires where the process can
    // publish JIT kernels.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for phase in Phase::ALL {
        let n = cold_report.phase_count(phase) + warm_report.phase_count(phase);
        let no_jit = phase == Phase::JitCompile && !egemm::jit_available();
        assert!(n > 0 || no_jit, "phase {} recorded no spans", phase.name());
        if cold_report.phase_count(phase) > 0 {
            assert!(
                trace.contains(&format!("\"name\":\"{}\"", phase.name())),
                "phase {} missing from the trace file",
                phase.name()
            );
        }
    }
    // And every span in the file is named after a phase, so a stale
    // phase name fails here.
    for span in trace.split("{\"ph\":\"X\",").skip(1) {
        let name = span
            .split("\"name\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .expect("span without a name");
        assert!(
            Phase::ALL.iter().any(|p| p.name() == name),
            "span {name:?} names no phase"
        );
    }

    // The fused pipeline's signature: fused_split_pack spans on the
    // cold call (B's k panels, packed on the pool before the tile grid,
    // and per-tile A packs).
    assert!(
        cold_report.phase_count(Phase::FusedSplitPack) > 0,
        "fused cold call recorded no fused_split_pack spans"
    );
    assert!(
        trace.contains("\"name\":\"fused_split_pack\""),
        "fused_split_pack missing from the trace file"
    );

    // Compute spans must be attributed to the worker threads that ran
    // them: more than one lane carries Tile events (4 workers, 8 tiles),
    // and each such lane is a named track in the trace file.
    let tile_lanes: Vec<u32> = cold_report
        .lanes
        .iter()
        .filter(|l| l.events.iter().any(|e| e.phase == Phase::Tile))
        .map(|l| l.worker)
        .collect();
    assert!(
        tile_lanes.len() > 1 || cores < 2,
        "tile spans landed on a single thread: {tile_lanes:?}"
    );
    for w in &tile_lanes {
        assert!(
            trace.contains(&format!("\"tid\":{w}")),
            "worker {w} missing from the trace file"
        );
    }
    assert!(
        trace.contains("\"name\":\"thread_name\""),
        "trace lacks thread-name metadata"
    );
    assert_eq!(cold_report.dropped_events, 0, "cold call overflowed rings");

    // The warm call must show the cache working: no new packs — B's
    // packed panels are served from the cache.
    assert_eq!(warm_report.cache.packs, 0, "warm call re-prepared B");
    println!(
        "validation passed: every phase recorded, tile spans on {} workers, \
         warm call fully cached",
        tile_lanes.len()
    );
}
