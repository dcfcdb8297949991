//! In-process serving demo: start a [`egemm_serve::Server`] over a
//! persistent engine, fire a wave of concurrent requests sharing one B
//! operand (the weight-matrix pattern), and show the batcher coalescing
//! them into few engine calls while every result stays bit-identical to
//! a direct cold `Egemm::gemm`.
//!
//! ```text
//! cargo run --release -p egemm-serve --example serving
//! ```

use egemm::{Egemm, EngineRuntime, RuntimeConfig, TilingConfig};
use egemm_matrix::Matrix;
use egemm_serve::{GemmRequest, Server, ServerConfig};
use egemm_tcsim::DeviceSpec;
use std::time::Duration;

fn main() {
    let runtime = EngineRuntime::new(RuntimeConfig {
        threads: 4,
        ..RuntimeConfig::default()
    });
    let engine = Egemm::new(DeviceSpec::t4(), TilingConfig::T4_PAPER).with_runtime(runtime);
    let server = Server::start(
        engine,
        ServerConfig {
            batch_window: Duration::from_millis(10),
            ..ServerConfig::default()
        },
    );
    let client = server.client();

    // One long-lived B (the "weights"), fresh A per request (the
    // "activations") — the pattern the shape-bucketed batcher and the
    // shared-B operand cache are built for.
    let b = Matrix::<f32>::random_uniform(256, 128, 7);
    let wave = 12usize;
    let handles: Vec<_> = (0..wave)
        .map(|i| {
            let c = client.clone();
            let a = Matrix::<f32>::random_uniform(64, 256, 100 + i as u64);
            let b = b.clone();
            std::thread::spawn(move || {
                let out = c.call(GemmRequest::gemm(a.clone(), b)).expect("served");
                (a, out)
            })
        })
        .collect();

    let reference = Egemm::new(DeviceSpec::t4(), TilingConfig::T4_PAPER).with_runtime(
        EngineRuntime::new(RuntimeConfig {
            threads: 1,
            cache_bytes: 0,
        }),
    );
    let mut max_batch = 0usize;
    for h in handles {
        let (a, out) = h.join().expect("submitter");
        max_batch = max_batch.max(out.batched_with);
        let direct = reference.gemm(&a, &b);
        assert_eq!(
            out.d.as_slice(),
            direct.d.as_slice(),
            "served result must be bit-identical to a cold direct call"
        );
        println!(
            "served {}  batched_with={:2}  queue {:6.2} ms  total {:6.2} ms",
            out.shape,
            out.batched_with,
            out.queue_ns as f64 / 1e6,
            out.total_ns as f64 / 1e6,
        );
    }

    let stats = server.stats();
    println!("\n{stats}");
    assert!(max_batch >= 2, "expected the wave to coalesce");
    println!(
        "\n{wave} concurrent shared-B requests -> {} engine call(s) \
         (batched ratio {:.2}x); every result bit-identical to cold direct",
        stats.engine_calls,
        stats.batched_ratio()
    );
    server.shutdown();
}
