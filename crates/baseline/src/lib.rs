//! # fidr-baseline
//!
//! The CIDR-extended baseline the paper profiles and beats (§2.3): a
//! hardware-accelerated inline data-reduction server whose control plane —
//! unique-chunk prediction, accelerator scheduling, table caching — runs on
//! host CPU and memory. This crate implements the full write/read flows of
//! Figure 2 functionally (real hashes, real compression, real tables) while
//! charging every byte and cycle to the `fidr-hwsim` ledger, so that the
//! paper's bottleneck analysis (Figures 4–5, Tables 1–2) can be reproduced
//! by measurement rather than assumption. What it stores, and the
//! delete/GC/checkpoint/scrub lifecycle on it, is `fidr_store::ChunkStore`
//! — shared with FIDR, so the two servers differ only in their data paths.
//!
//! # Examples
//!
//! ```
//! use fidr_baseline::{BaselineConfig, BaselineSystem};
//! use fidr_chunk::Lba;
//! use bytes::Bytes;
//!
//! let mut sys = BaselineSystem::new(BaselineConfig::default());
//! sys.write(Lba(0), Bytes::from(vec![1u8; 4096]))?;
//! assert!(sys.ledger().mem_bytes_per_client_byte() > 1.0);
//! # Ok::<(), fidr_baseline::SystemError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod predictor;
mod system;

pub use predictor::{PredictorStats, UniquePredictor};
pub use system::{BaselineConfig, BaselineSystem, SystemError};
