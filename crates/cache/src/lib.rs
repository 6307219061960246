//! # fidr-cache
//!
//! Hash-PBN table caching for the FIDR reproduction — the subsystem behind
//! Observation #4 and ideas (c) of the paper: caching metadata tables needs
//! host-DRAM *capacity* for content but hardware help for *indexing*.
//!
//! * [`BPlusTree`] — from-scratch software index (the CIDR baseline's
//!   PALM-style tree, §7.1);
//! * [`HwTree`] — the FIDR Cache HW-Engine's pipelined FPGA tree with
//!   speculative concurrent updates and crash/replay (§5.5.1, Figure 13);
//! * [`LruList`] / [`FreeList`] — replacement machinery split between host
//!   and engine (§5.5, §6.3);
//! * [`TableCache`] — cache lines + dirty tracking over a pluggable
//!   [`CacheIndex`];
//! * [`ShardedTableCache`] — N independent hash-prefix-addressed shards,
//!   each with its own index engine, for the multi-worker pipeline;
//! * [`TieredPolicy`] — per-stream temperature classification (HPDedup)
//!   driving the DRAM-vs-slow-tier admission split, with the slow tier
//!   served by [`TableCache::scrub_group`].
//!
//! # Examples
//!
//! ```
//! use fidr_cache::{HwTree, HwTreeConfig, TableCache};
//! use fidr_ssd::{QueueLocation, TableSsd};
//!
//! let mut ssd = TableSsd::new(4096, QueueLocation::CacheEngine);
//! let mut cache = TableCache::new(128, HwTree::new(HwTreeConfig::default()));
//! let access = cache.access(99, &mut ssd)?;
//! assert!(!access.hit);
//! # Ok::<(), fidr_ssd::TableSsdError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod btree;
mod hwtree;
mod lru;
mod pipelined;
mod sharded;
mod table_cache;
mod tiered;

pub use btree::{BPlusTree, IndexOps};
pub use hwtree::{HwTree, HwTreeConfig, HwTreeStats};
pub use lru::{FreeList, LruList};
pub use pipelined::PipelinedTree;
pub use sharded::ShardedTableCache;
pub use table_cache::{Access, CacheIndex, CacheStats, ScrubGroup, ScrubResult, TableCache};
pub use tiered::{Temperature, TierPolicyStats, TieredPolicy, TieredPolicyConfig};
