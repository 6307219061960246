//! # fidr-core
//!
//! The FIDR system itself — the paper's primary contribution (§5–§6): a
//! fine-grain (4-KB) inline data-reduction server built on three ideas:
//!
//! 1. **Hash offloading to the NIC** — unique chunks are detected early,
//!    the CPU/memory-hungry unique-chunk predictor disappears, and only
//!    unique chunks cross PCIe;
//! 2. **In-NIC buffering + PCIe peer-to-peer** — client payloads flow
//!    NIC → Compression Engine → data SSDs without touching host DRAM;
//! 3. **Hybrid table caching** — the Cache HW-Engine indexes the
//!    host-DRAM bucket cache and drives the table SSDs, while the CPU only
//!    scans cached content.
//!
//! [`FidrSystem`] implements the full Figure 6 write/read flows over the
//! workspace substrates, charging every movement to the `fidr-hwsim`
//! ledger. What it stores, and the delete/GC/checkpoint/scrub lifecycle
//! on it, is `fidr_store::ChunkStore` — shared with the baseline. [`CacheMode`] selects the Figure 14 ablation stages, and
//! [`LatencyModel`] reproduces the §7.6 latency comparison.
//!
//! # Examples
//!
//! ```
//! use fidr_core::{CacheMode, FidrConfig, FidrSystem};
//! use fidr_chunk::Lba;
//! use bytes::Bytes;
//!
//! let mut sys = FidrSystem::new(FidrConfig {
//!     cache_mode: CacheMode::HwEngine { update_slots: 4 },
//!     ..FidrConfig::default()
//! });
//! sys.write(Lba(1), Bytes::from(vec![9u8; 4096]))?;
//! sys.flush()?;
//! assert_eq!(sys.read(Lba(1))?[0], 9);
//! # Ok::<(), fidr_core::FidrError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod latency;
mod system;

pub use backend::{CacheBackend, CacheMode};
pub use fidr_tables::{Snapshot, SnapshotError};
pub use fidr_trace::{TraceConfig, Tracer};
pub use latency::{LatencyModel, Stage};
pub use system::{FidrConfig, FidrError, FidrSystem, TieredDedupConfig, DEFAULT_STREAM_SHIFT};
