//! Standalone serving process: a [`Server`] over a 4-worker engine
//! behind the epoll [`EventServer`], bound to `ADDR` and run until
//! killed. It speaks `egemm_serve::binwire`; `egemm_top --connect ADDR`
//! polls its `METRICS` verb.
//!
//! ```text
//! serve_loadgen --serve ADDR
//! ```
//!
//! Load generation and the serving benchmark are the ledger's `serve_*`
//! workloads (`crates/bench/src/bin/ledger`, declared in BENCHMARK.json).

use egemm::{Egemm, EngineRuntime, RuntimeConfig, TilingConfig};
use egemm_serve::{EventServer, Server, ServerConfig};
use egemm_tcsim::DeviceSpec;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let Some(addr) = args
        .iter()
        .position(|a| a == "--serve")
        .and_then(|i| args.get(i + 1))
    else {
        eprintln!("usage: serve_loadgen --serve ADDR");
        std::process::exit(2);
    };
    let rt = EngineRuntime::new(RuntimeConfig {
        threads: 4,
        ..RuntimeConfig::default()
    });
    let engine = Egemm::new(DeviceSpec::t4(), TilingConfig::T4_PAPER).with_runtime(rt);
    let server = Server::start(engine, ServerConfig::default());
    let evt = EventServer::bind(addr.as_str(), server.client()).unwrap_or_else(|e| {
        eprintln!("serve_loadgen: cannot serve on {addr}: {e}");
        std::process::exit(1);
    });
    println!("serving on {}", evt.local_addr());
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
