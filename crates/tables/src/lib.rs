//! # fidr-tables
//!
//! Data-reduction metadata for FIDR: the bucket-based Hash-PBN table
//! ([`Bucket`], [`HashPbnStore`]; paper §2.1.3), the two-level LBA-PBA map
//! ([`LbaPbaTable`]; §2.1.4), and the container format compressed chunks
//! are packed into before data-SSD writes ([`ContainerBuilder`]).
//!
//! # Examples
//!
//! ```
//! use fidr_tables::{HashPbnStore, LbaPbaTable, PbnLocation};
//! use fidr_hash::Fingerprint;
//! use fidr_chunk::{Lba, Pbn};
//!
//! let mut hash_pbn = HashPbnStore::new(64);
//! let mut lba_map = LbaPbaTable::new();
//!
//! let fp = Fingerprint::of(b"payload");
//! hash_pbn.insert(fp, Pbn(0))?;
//! lba_map.record_pbn(Pbn(0), PbnLocation { container: 0, offset: 0, compressed_len: 512 }, fp);
//! lba_map.map_write(Lba(1), Pbn(0));
//! assert!(lba_map.lookup(Lba(1)).is_some());
//! # Ok::<(), fidr_tables::BucketInsertError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bucket;
mod container;
mod hash_pbn;
mod lba_map;
mod liveness;
mod reduction;
mod snapshot;

pub use bucket::{Bucket, BucketInsertError, BUCKET_BYTES, ENTRIES_PER_BUCKET, ENTRY_BYTES};
pub use container::{
    AppendSlot, ChunkRegion, Container, ContainerBuilder, ContainerReadError, CHUNK_HEADER_BYTES,
    CONTAINER_THRESHOLD,
};
pub use hash_pbn::HashPbnStore;
pub use lba_map::{LbaPbaTable, PbnLocation};
pub use liveness::{ContainerLiveness, GcReport};
pub use reduction::ReductionStats;
pub use snapshot::{Snapshot, SnapshotError};
