//! # fidr
//!
//! A from-scratch Rust reproduction of **FIDR: A Scalable Storage System
//! for Fine-Grain Inline Data Reduction with Efficient Memory Handling**
//! (Ajdari et al., MICRO-52, 2019): a deduplicating + compressing storage
//! server that offloads hashing to the NIC, moves client data over PCIe
//! peer-to-peer paths that bypass host DRAM, and splits metadata-table
//! caching between an FPGA index engine and host-memory content.
//!
//! This facade crate re-exports the whole workspace and adds the
//! [`experiment`] runner that drives the paper's workloads through either
//! system for the benchmark harness.
//!
//! # Quickstart
//!
//! ```
//! use fidr::core::{FidrConfig, FidrSystem};
//! use fidr::chunk::Lba;
//! use bytes::Bytes;
//!
//! let mut server = FidrSystem::new(FidrConfig::default());
//! server.write(Lba(0), Bytes::from(vec![7u8; 4096]))?;
//! server.flush()?;
//! assert_eq!(server.read(Lba(0))?, vec![7u8; 4096]);
//! println!("host memory bytes per client byte: {:.2}",
//!          server.ledger().mem_bytes_per_client_byte());
//! # Ok::<(), fidr::core::FidrError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod client;
pub mod experiment;
pub mod net;
pub mod router;
pub mod server;

/// The CIDR-extended baseline system (paper §2.3).
pub use fidr_baseline as baseline;
/// Table caching: software B+ tree and the Cache HW-Engine.
pub use fidr_cache as cache;
/// Chunking and address types.
pub use fidr_chunk as chunk;
/// LZ-class compression and content generation.
pub use fidr_compress as compress;
/// The FIDR system itself.
pub use fidr_core as core;
/// Cost and FPGA resource models.
pub use fidr_cost as cost;
/// Seeded fault injection and retry policies.
pub use fidr_faults as faults;
/// SHA-256 and fingerprints.
pub use fidr_hash as hash;
/// Resource ledgers, platform specs and projection.
pub use fidr_hwsim as hwsim;
/// Metrics registry, histograms and snapshots.
pub use fidr_metrics as metrics;
/// The FIDR NIC model and storage protocol.
pub use fidr_nic as nic;
/// NVMe SSD models.
pub use fidr_ssd as ssd;
/// Metadata tables and containers.
pub use fidr_tables as tables;
/// Per-request span tracing, Perfetto export, critical-path analysis.
pub use fidr_trace as trace;
/// Table 3 workload generation.
pub use fidr_workload as workload;

pub use experiment::{
    run_requests, run_workload, run_workload_sharded, shard_seed, RunConfig, RunReport,
    ShardedReport, SystemVariant,
};
