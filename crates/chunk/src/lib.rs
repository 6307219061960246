//! # fidr-chunk
//!
//! Chunking layer of the FIDR data-reduction system: the address-space
//! newtypes ([`Lba`], [`Pbn`], [`Pba`]) and the [`IdMap`] keyed by the
//! ids the server allocates, the fine-grain [`FixedChunker`]
//! (the paper's 4-KB chunking, §2.1.1/§3.1), the [`replay_chunking`]
//! read-modify-write analysis behind Figure 3, and a content-defined
//! [`GearChunker`] extension for measuring the variable-size alternative.
//!
//! # Examples
//!
//! ```
//! use fidr_chunk::{FixedChunker, Lba};
//!
//! let chunker = FixedChunker::default(); // 4 KB
//! let request = bytes::Bytes::from(vec![3u8; 4096 * 4]);
//! let chunks = chunker.split(Lba(0), request)?;
//! assert_eq!(chunks.len(), 4);
//! # Ok::<(), fidr_chunk::ChunkingError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cdc;
mod chunker;
mod idmap;
mod rmw;
mod types;

pub use cdc::{CutPoint, GearChunker};
pub use chunker::{Chunk, ChunkingError, FixedChunker};
pub use idmap::{IdHasher, IdMap};
pub use rmw::{io_amplification, replay_chunking, BlockWrite, ChunkingReport};
pub use types::{Lba, Pba, Pbn, CHUNK_SIZE};
