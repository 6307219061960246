//! Loopback TCP serving demo: the two-machine deployment of §6.2 on one
//! host. Spawns the concurrent storage front-end, drives it with four
//! parallel client connections of interleaved write/read/verify traffic
//! over real sockets, then drains the server and prints the `server.*`
//! slice of its final `fidr.metrics.v1` snapshot.
//!
//! ```sh
//! cargo run --release --example tcp_loopback
//! ```

use fidr::client::{run_traffic, StorageClient};
use fidr::server::{Server, ServerConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Port 0 picks an ephemeral port; four connections then auto-drain.
    let handle = Server::spawn(ServerConfig {
        conns_limit: Some(4),
        ..ServerConfig::default()
    })?;
    let addr = handle.local_addr();
    println!("serving on {addr}");

    let report = run_traffic(|| StorageClient::connect(addr), 4, 150, 42)?;
    println!(
        "client traffic: {} writes acked, {} reads verified, {} mismatches",
        report.writes, report.reads, report.verify_failures
    );
    assert_eq!(report.verify_failures, 0);

    // All four connections closed, so the server drains on its own:
    // remaining NIC batches process, the open container seals, dirty
    // cache lines flush.
    let metrics = handle.wait()?;
    println!("\nfinal server.* counters:");
    for (name, _) in metrics.iter() {
        if let Some(v) = metrics.counter(name) {
            if name.starts_with("server.") {
                println!("  {name:<42} {v}");
            }
        }
    }
    let dedup = metrics
        .counter("reduction.duplicate_chunks.count")
        .unwrap_or_default();
    println!("\ncross-connection duplicate chunks eliminated: {dedup}");
    assert_eq!(metrics.counter("server.frames.rejected.count"), Some(0));
    Ok(())
}
