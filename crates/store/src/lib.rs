//! # fidr-store
//!
//! The chunk store under both engines. The paper's comparison (Figures
//! 4, 11, 12, 14) is between two servers that store *the same bytes* and
//! differ only in where hashing happens, which links the data crosses
//! and who indexes the table cache. Everything that does not depend on
//! that choice lives here, once: [`ChunkStore`] owns the LBA map and
//! reference counts, the open container, the data SSDs, the liveness
//! census and the dead list, and implements delete, two-phase garbage
//! collection, checkpoint/restore, the integrity scrub, read-repair and
//! the metrics both engines export. `fidr-core` and `fidr-baseline` keep
//! their write and read data paths and pass the store what genuinely
//! differs: a [`DataPath`] (which links a sealed container or a GC
//! survivor is charged to) and, for GC, a callback that removes a dead
//! chunk's Hash-PBN entry through the engine's own table cache.
//!
//! # Examples
//!
//! ```
//! use fidr_store::{ChunkStore, DataPath};
//! use fidr_chunk::Lba;
//! use fidr_compress::CompressedChunk;
//! use fidr_hash::Fingerprint;
//!
//! let faults = fidr_faults::FaultInjector::new(Default::default());
//! let (cost, retry, trace) = Default::default();
//! let mut store = ChunkStore::new(DataPath::PeerToPeer, 64 << 10, 2, cost, retry, trace, faults);
//! let data = vec![7u8; 4096];
//! let compressed = CompressedChunk::compress(&data);
//! let pbn = store.stage(Lba(1), Fingerprint::of(&data), &compressed, None)?;
//! let (found, loc) = store.locate(Lba(1))?;
//! assert_eq!(found, pbn);
//! assert_eq!(store.fetch_chunk_verified(pbn, loc)?, data);
//! # Ok::<(), fidr_store::StoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod store;

pub use error::StoreError;
pub use store::{ChunkStore, DataPath, Op, OpToken};
